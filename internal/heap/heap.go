// Package heap implements the virtual machine's object memory: a flat byte
// array holding objects and arrays at real (virtual) addresses, allocated
// by bump pointer and reclaimed by a type-accurate semispace copying
// collector, as in Jalapeño.
//
// Everything about the heap is a deterministic function of the allocation
// request sequence: identical executions produce identical addresses, which
// is what lets DejaVu replay reproduce the exact memory image — and what
// lets remote reflection interpret raw memory peeks from another process.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Addr is a byte offset into the heap. 0 is the null reference (the first
// word of the heap is kept unused to reserve it).
type Addr uint32

// WordSize is the size of one heap slot in bytes.
const WordSize = 8

// Kind distinguishes the layout of heap entities.
type Kind uint8

const (
	KindObject   Kind = 0 // payload: one word per field
	KindInt64Arr Kind = 1 // payload: Len words
	KindRefArr   Kind = 2 // payload: Len reference words
	KindByteArr  Kind = 3 // payload: Len bytes, word-padded
)

// Header word layout (little endian in memory):
//
//	bits  0..27: type ID     (class ID for objects; unused for arrays)
//	bits 28..59: payload length (fields, elements, or bytes)
//	bits 60..62: kind
//	bit      63: forwarding marker (GC only; low 32 bits then hold the
//	             forwarded address)
const (
	typeBits   = 28
	lenBits    = 32
	typeMask   = 1<<typeBits - 1
	lenMask    = 1<<lenBits - 1
	kindShift  = typeBits + lenBits
	forwardBit = uint64(1) << 63
)

func packHeader(typeID int, length int, kind Kind) uint64 {
	return uint64(typeID) | uint64(length)<<typeBits | uint64(kind)<<kindShift
}

// TypeTable supplies the garbage collector's reference maps: for each
// object type, which field slots hold references. It mirrors the per-class
// reference maps Jalapeño's type-accurate collectors rely on.
type TypeTable struct {
	Names   []string
	RefMaps [][]bool
}

// AddType appends a type and returns its ID.
func (t *TypeTable) AddType(name string, refMap []bool) int {
	t.Names = append(t.Names, name)
	t.RefMaps = append(t.RefMaps, refMap)
	return len(t.Names) - 1
}

// ErrOutOfMemory is returned by allocation when the current semispace is
// exhausted; the VM responds by collecting and retrying, then growing.
var ErrOutOfMemory = errors.New("heap: semispace exhausted")

// Heap is the VM object memory.
//
// Its address space is two semispaces, 2×semi bytes, but mem backs only a
// prefix of it, committed geometrically as allocation or a collection's
// to-space reaches further. Bytes outside the active semispace's
// allocated range [base, alloc) are unspecified: allocation zeroes every
// payload it hands out, the collector reads only from-space [base+8,
// alloc), and every other reader stays inside [base, alloc). That is what
// lets a snapshot carry only that range.
type Heap struct {
	mem   []byte // committed prefix of the 2×semi address space
	semi  int    // semispace size in bytes
	base  int    // start of the active semispace
	alloc int    // next free byte offset (absolute)
	limit int    // min(base+semi, len(mem)): the allocation fast path's bound

	types *TypeTable

	// Statistics.
	Collections int
	Grows       int
	AllocCount  uint64
	AllocBytes  uint64
}

// minSemi is the smallest semispace, and the memory a new heap commits.
const minSemi = 4096

// New creates a heap with the given semispace size in bytes (rounded up to
// a word multiple, minimum one page of 4096). It commits one page; the
// rest of the address space is committed as allocation reaches it.
func New(types *TypeTable, semiBytes int) *Heap {
	if semiBytes < minSemi {
		semiBytes = minSemi
	}
	semiBytes = (semiBytes + WordSize - 1) &^ (WordSize - 1)
	h := &Heap{
		mem:   make([]byte, minSemi),
		semi:  semiBytes,
		alloc: WordSize, // keep address 0 unused so it can mean null
		types: types,
	}
	h.setLimit()
	return h
}

func (h *Heap) setLimit() { h.limit = min(h.base+h.semi, len(h.mem)) }

// commit makes the backing memory at least n bytes long (n ≤ 2×semi). It
// at least doubles the commitment, so growth costs amortised O(1) per
// byte, and carries only the allocated range [base, alloc) into a new
// array.
func (h *Heap) commit(n int) {
	if n > len(h.mem) {
		c := min(max(n, 2*len(h.mem)), 2*h.semi)
		if c > cap(h.mem) {
			mem := make([]byte, c)
			copy(mem[h.base:h.alloc], h.mem[h.base:h.alloc])
			h.mem = mem
		} else {
			h.mem = h.mem[:c]
		}
	}
	h.setLimit()
}

// Types returns the heap's type table.
func (h *Heap) Types() *TypeTable { return h.types }

// SemiSize returns the current semispace size in bytes.
func (h *Heap) SemiSize() int { return h.semi }

// Used returns the number of allocated bytes in the active semispace.
func (h *Heap) Used() int { return h.alloc - h.base }

func (h *Heap) word(off int) uint64 {
	return binary.LittleEndian.Uint64(h.mem[off : off+WordSize])
}

func (h *Heap) setWord(off int, v uint64) {
	binary.LittleEndian.PutUint64(h.mem[off:off+WordSize], v)
}

// payloadBytes returns the word-padded payload size for a header.
func payloadBytes(kind Kind, length int) int {
	switch kind {
	case KindByteArr:
		return (length + WordSize - 1) &^ (WordSize - 1)
	default:
		return length * WordSize
	}
}

func (h *Heap) allocRaw(typeID, length int, kind Kind) (Addr, error) {
	if length < 0 || length > lenMask {
		return 0, fmt.Errorf("heap: bad allocation length %d", length)
	}
	size := WordSize + payloadBytes(kind, length)
	if h.alloc+size > h.limit {
		if h.alloc+size > h.base+h.semi {
			return 0, ErrOutOfMemory
		}
		h.commit(h.alloc + size)
	}
	a := Addr(h.alloc)
	h.setWord(h.alloc, packHeader(typeID, length, kind))
	// Zero the payload (memory may be recycled from a previous flip).
	for i := h.alloc + WordSize; i < h.alloc+size; i += WordSize {
		h.setWord(i, 0)
	}
	h.alloc += size
	h.AllocCount++
	h.AllocBytes += uint64(size)
	return a, nil
}

// AllocObject allocates an instance of typeID with the given field count.
func (h *Heap) AllocObject(typeID, numFields int) (Addr, error) {
	if typeID < 0 || typeID >= len(h.types.Names) {
		return 0, fmt.Errorf("heap: unknown type %d", typeID)
	}
	return h.allocRaw(typeID, numFields, KindObject)
}

// AllocArray allocates an array of the given kind and length.
func (h *Heap) AllocArray(kind Kind, length int) (Addr, error) {
	if kind != KindInt64Arr && kind != KindRefArr && kind != KindByteArr {
		return 0, fmt.Errorf("heap: bad array kind %d", kind)
	}
	return h.allocRaw(0, length, kind)
}

// header validates a and returns its decoded header.
func (h *Heap) header(a Addr) (typeID, length int, kind Kind) {
	w := h.word(int(a))
	return int(w & typeMask), int(w >> typeBits & lenMask), Kind(w >> kindShift & 7)
}

// Valid reports whether a points at an allocated entity in the active
// semispace.
func (h *Heap) Valid(a Addr) bool {
	off := int(a)
	return off >= h.base+WordSize && off < h.alloc && off%WordSize == 0
}

// TypeID returns the type of the object at a.
func (h *Heap) TypeID(a Addr) int { t, _, _ := h.header(a); return t }

// KindOf returns the kind of the entity at a.
func (h *Heap) KindOf(a Addr) Kind { _, _, k := h.header(a); return k }

// Len returns the payload length (fields, elements, or bytes) at a.
func (h *Heap) Len(a Addr) int { _, n, _ := h.header(a); return n }

// LoadWord reads payload slot i of the entity at a.
func (h *Heap) LoadWord(a Addr, i int) uint64 {
	return h.word(int(a) + WordSize + i*WordSize)
}

// StoreWord writes payload slot i of the entity at a.
func (h *Heap) StoreWord(a Addr, i int, v uint64) {
	h.setWord(int(a)+WordSize+i*WordSize, v)
}

// LoadByte reads byte i of a byte array at a.
func (h *Heap) LoadByte(a Addr, i int) byte {
	return h.mem[int(a)+WordSize+i]
}

// StoreByte writes byte i of a byte array at a.
func (h *Heap) StoreByte(a Addr, i int, v byte) {
	h.mem[int(a)+WordSize+i] = v
}

// Bytes returns the byte-array payload at a as a slice aliasing heap
// memory. The slice is invalidated by any collection.
func (h *Heap) Bytes(a Addr) []byte {
	_, n, k := h.header(a)
	if k != KindByteArr {
		panic(fmt.Sprintf("heap: Bytes on kind %d", k))
	}
	off := int(a) + WordSize
	return h.mem[off : off+n]
}

// CheckBounds validates an array index, returning a descriptive error for
// the interpreter's trap machinery.
func (h *Heap) CheckBounds(a Addr, i int) error {
	_, n, _ := h.header(a)
	if i < 0 || i >= n {
		return fmt.Errorf("heap: index %d out of bounds (length %d)", i, n)
	}
	return nil
}

// ReadBytes copies n bytes at absolute address a into p, for the ptrace
// peek server. It performs pure reads with bounds checking and never
// faults. Addresses inside both semispaces that were never committed read
// as zero.
func (h *Heap) ReadBytes(a Addr, p []byte) error {
	off := int(a)
	if off < 0 || off+len(p) > h.MemSize() {
		return fmt.Errorf("heap: peek [%d,%d) outside memory of %d bytes", off, off+len(p), h.MemSize())
	}
	n := copy(p, h.mem[min(off, len(h.mem)):])
	clear(p[n:])
	return nil
}

// MemSize returns the total heap address space in bytes (both
// semispaces), committed or not.
func (h *Heap) MemSize() int { return 2 * h.semi }

// ActiveBase returns the byte offset of the active semispace, so tools can
// read the occupied region [ActiveBase, ActiveBase+Used()).
func (h *Heap) ActiveBase() Addr { return Addr(h.base) }

// DecodeHeader unpacks a raw header word, as read from this or a remote
// heap's memory. Remote reflection uses it to interpret peeked bytes with
// the same layout rules the VM itself uses.
func DecodeHeader(w uint64) (typeID, length int, kind Kind) {
	return int(w & typeMask), int(w >> typeBits & lenMask), Kind(w >> kindShift & 7)
}

// HeaderBytes is the size of an entity header.
const HeaderBytes = WordSize

// PayloadAddr returns the address of payload slot i of the entity at a.
func PayloadAddr(a Addr, i int) Addr { return a + HeaderBytes + Addr(i*WordSize) }
