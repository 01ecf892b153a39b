package main

import (
	"bytes"
	"io"
	"io/fs"
	"sort"
	"sync"
	"sync/atomic"

	"dejavu/internal/trace"
)

// memFS is the benchmark's journal storage: a trace.FS held in memory.
// Every journal the benchmark writes — the sweep's journal mode and every
// session's — goes through it, so DejaVu's journal work (segments, CRCs,
// manifests, checkpoint encode, OpenJournal) is timed without the host's
// filesystem. On the shared host the bounds were set on, the same session
// code on disk read up to 40% slower in one run than in another — more
// with fsyncs issued — while work that touched no disk kept its speed:
// metadata updates and fsyncs wait on other tenants' disk traffic. The
// fsyncs a journal asks for are counted (trace.fsyncs_per_run) and
// otherwise do nothing. The sweep's file_record mode still writes a real
// file.
type memFS struct {
	mu     sync.Mutex
	files  map[string][]byte
	fsyncs *atomic.Int64
}

func newMemFS(fsyncs *atomic.Int64) *memFS {
	return &memFS{files: map[string][]byte{}, fsyncs: fsyncs}
}

func (m *memFS) Create(name string) (trace.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = b
	return nil
}

func (m *memFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// sizes returns every file's length.
func (m *memFS) sizes() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, len(m.files))
	for n, b := range m.files {
		out[n] = len(b)
	}
	return out
}

// memFile appends to its file as it is written, as an unbuffered file
// does; a reader opened meanwhile sees what was written before it opened.
type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.fsyncs.Add(1)
	return nil
}

func (f *memFile) Close() error { return nil }
