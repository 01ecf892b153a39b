// Package memfs is an in-memory trace.FS that records every mutation to an op tape,
// so a single journal recording can be "crashed" at every byte-granular
// point afterwards — BuildFS replays a budget-bounded prefix of the tape
// onto a fresh filesystem, modeling a process killed at exactly that
// point, without re-running the recording per kill site.
package memfs

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"dejavu/internal/trace"
)

// FSOpKind tags one entry of the MemFS op tape.
type FSOpKind uint8

const (
	// OpCreate creates (or truncates) a file. Costs 1 budget unit.
	OpCreate FSOpKind = iota
	// OpWrite appends bytes to a file. Costs len(Data) units; a budget
	// running out mid-write keeps the partial prefix — a torn write.
	OpWrite
	// OpRename renames a file. Costs 1 unit and is atomic: it either
	// happened or it did not, never half.
	OpRename
	// OpRemove deletes a file. Costs 1 unit.
	OpRemove
)

// FSOp is one logged filesystem mutation.
type FSOp struct {
	Kind FSOpKind
	Name string
	To   string // rename target
	Data []byte // write payload
}

func (op FSOp) String() string {
	switch op.Kind {
	case OpCreate:
		return fmt.Sprintf("create %s", op.Name)
	case OpWrite:
		return fmt.Sprintf("write %s (%d bytes)", op.Name, len(op.Data))
	case OpRename:
		return fmt.Sprintf("rename %s -> %s", op.Name, op.To)
	default:
		return fmt.Sprintf("remove %s", op.Name)
	}
}

// Units is the op's crash-budget cost: every written byte is one unit, and
// every metadata operation (create, rename, remove) is one unit, so a
// budget sweep kills at every byte of every write and at every metadata
// boundary — including between a temp-file write and its rename.
func (op FSOp) Units() int64 {
	if op.Kind == OpWrite {
		return int64(len(op.Data))
	}
	return 1
}

// MemFS is an in-memory trace.FS logging mutations to an op tape.
type MemFS struct {
	files map[string][]byte
	ops   []FSOp
}

// New returns an empty filesystem.
func New() *MemFS { return &MemFS{files: map[string][]byte{}} }

// Ops returns the mutation tape accumulated so far.
func (m *MemFS) Ops() []FSOp { return m.ops }

// BuildFS replays the first budget units of tape onto a fresh MemFS: the
// state a real directory would hold if the recording process were killed
// at exactly that point (fsynced data only — MemFS models the conservative
// world where nothing unwritten survives, and writes are torn at byte
// granularity).
func BuildFS(tape []FSOp, budget int64) *MemFS {
	fs := New()
	for _, op := range tape {
		cost := op.Units()
		if budget <= 0 {
			break
		}
		switch op.Kind {
		case OpCreate:
			fs.files[op.Name] = nil
		case OpWrite:
			data := op.Data
			if budget < cost {
				data = data[:budget] // torn write
			}
			fs.files[op.Name] = append(fs.files[op.Name], data...)
		case OpRename:
			if b, ok := fs.files[op.Name]; ok {
				delete(fs.files, op.Name)
				fs.files[op.To] = b
			}
		case OpRemove:
			delete(fs.files, op.Name)
		}
		budget -= cost
	}
	fs.ops = nil // the rebuilt fs starts a fresh tape (recovery may write)
	return fs
}

// memFile is the writable handle; Sync is a no-op (MemFS is "storage").
type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	cp := append([]byte(nil), p...)
	f.fs.files[f.name] = append(f.fs.files[f.name], cp...)
	f.fs.ops = append(f.fs.ops, FSOp{Kind: OpWrite, Name: f.name, Data: cp})
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// Create implements trace.FS.
func (m *MemFS) Create(name string) (trace.File, error) {
	m.files[name] = nil
	m.ops = append(m.ops, FSOp{Kind: OpCreate, Name: name})
	return &memFile{fs: m, name: name}, nil
}

// Open implements trace.FS; the reader sees a snapshot of the file at open.
func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	b, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: open %s: no such file", name)
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), b...))), nil
}

// Rename implements trace.FS (atomic, like POSIX rename within a dir).
func (m *MemFS) Rename(oldname, newname string) error {
	b, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("memfs: rename %s: no such file", oldname)
	}
	delete(m.files, oldname)
	m.files[newname] = b
	m.ops = append(m.ops, FSOp{Kind: OpRename, Name: oldname, To: newname})
	return nil
}

// List implements trace.FS.
func (m *MemFS) List() ([]string, error) {
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements trace.FS.
func (m *MemFS) Remove(name string) error {
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: remove %s: no such file", name)
	}
	delete(m.files, name)
	m.ops = append(m.ops, FSOp{Kind: OpRemove, Name: name})
	return nil
}

// ReadFile returns a copy of a file's current content (test convenience).
func (m *MemFS) ReadFile(name string) ([]byte, bool) {
	b, ok := m.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// CorruptBit flips one bit of a file in place, returning false when the
// file does not exist or is empty.
func (m *MemFS) CorruptBit(name string, i int) bool {
	b := m.files[name]
	if len(b) == 0 {
		return false
	}
	b[i%len(b)] ^= 1 << (i % 8)
	return true
}
