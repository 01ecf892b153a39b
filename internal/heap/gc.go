package heap

import (
	"errors"
	"fmt"
)

// RootVisitor is called by the VM's root enumeration for every root slot
// holding a (possibly null) reference. The collector updates the slot in
// place with the object's new address.
type RootVisitor func(slot *Addr)

// RootSet enumerates all roots: class statics, VM-internal tables. The
// function must call visit once per root slot.
type RootSet func(visit RootVisitor)

// StackRoot describes one thread's activation stack: a heap-resident
// int64-array segment whose live slots [0, Limit) are classified by the
// side table Tags — true slots hold references. This is the analog of
// Jalapeño's per-safe-point stack reference maps: the collector forwards
// the segment itself, then the tagged slots inside its to-space copy.
type StackRoot struct {
	Seg   *Addr
	Tags  []bool
	Limit int
}

// Collect runs a Cheney semispace copying collection. Live objects move to
// the other semispace in breadth-first order — a deterministic function of
// the root enumeration order, so record and replay executions produce
// identical post-collection addresses.
func (h *Heap) Collect(roots RootSet, stacks []StackRoot) {
	toBase := otherBase(h.base, h.semi)
	// Every entity is copied at most once, so the to-space never needs
	// more than the from-space's Used() bytes.
	h.commit(toBase + h.Used())
	h.collectIntoMem(roots, stacks, h.mem, h.semi, toBase)
}

// Grow collects into a doubled semispace, both compacting and enlarging.
// The new memory commits twice what the live data can need: room for the
// allocation that forced the grow.
func (h *Heap) Grow(roots RootSet, stacks []StackRoot) {
	newMem := make([]byte, 2*h.Used())
	// Copy into the first semispace of the new memory.
	h.collectIntoMem(roots, stacks, newMem, 2*h.semi, 0)
	h.Grows++
}

func otherBase(base, semi int) int {
	if base == 0 {
		return semi // flip to the high half
	}
	return 0
}

// collectIntoMem copies live data from the current space in h.mem into
// toMem at toBase. toMem may alias h.mem (normal flip) or be fresh (grow).
func (h *Heap) collectIntoMem(roots RootSet, stacks []StackRoot, toMem []byte, newSemi, toBase int) {
	from := h.mem
	to := toMem
	allocPtr := toBase + WordSize // keep null reserved
	// The null word is part of the occupied region peeks and digests read;
	// zero it, since the to-space may hold stale bytes from before a
	// Restore.
	clear(to[toBase:allocPtr])

	load := func(mem []byte, off int) uint64 {
		return uint64(mem[off]) | uint64(mem[off+1])<<8 | uint64(mem[off+2])<<16 |
			uint64(mem[off+3])<<24 | uint64(mem[off+4])<<32 | uint64(mem[off+5])<<40 |
			uint64(mem[off+6])<<48 | uint64(mem[off+7])<<56
	}
	store := func(mem []byte, off int, v uint64) {
		mem[off] = byte(v)
		mem[off+1] = byte(v >> 8)
		mem[off+2] = byte(v >> 16)
		mem[off+3] = byte(v >> 24)
		mem[off+4] = byte(v >> 32)
		mem[off+5] = byte(v >> 40)
		mem[off+6] = byte(v >> 48)
		mem[off+7] = byte(v >> 56)
	}

	// forward copies the entity at a (if not already copied) and returns
	// its new address. Forwarding an address that does not lie in the
	// occupied from-space is a collector-invariant violation — typically a
	// root slot visited twice, or a primitive slot mistagged as a
	// reference — and is reported immediately rather than silently
	// corrupting the to-space.
	fromLo, fromHi := h.base+WordSize, h.alloc
	forward := func(a Addr) Addr {
		if a == 0 {
			return 0
		}
		if int(a) < fromLo || int(a) >= fromHi {
			panic(fmt.Sprintf("heap: forwarding %d, outside from-space [%d,%d): double-visited root or mistagged slot", a, fromLo, fromHi))
		}
		hdr := load(from, int(a))
		if hdr&forwardBit != 0 {
			return Addr(hdr & 0xffffffff)
		}
		kind := Kind(hdr >> kindShift & 7)
		length := int(hdr >> typeBits & lenMask)
		size := WordSize + payloadBytes(kind, length)
		if allocPtr+size > toBase+newSemi {
			panic(fmt.Sprintf("heap: to-space overflow during collection (need %d)", size))
		}
		na := Addr(allocPtr)
		copy(to[allocPtr:allocPtr+size], from[int(a):int(a)+size])
		allocPtr += size
		store(from, int(a), forwardBit|uint64(na))
		return na
	}

	roots(func(slot *Addr) {
		*slot = forward(*slot)
	})

	// Thread stacks: forward each segment, then rewrite the tagged slots
	// inside its to-space copy with forwarded references.
	for _, sr := range stacks {
		if sr.Seg == nil || *sr.Seg == 0 {
			continue
		}
		*sr.Seg = forward(*sr.Seg)
		payload := int(*sr.Seg) + WordSize
		for i := 0; i < sr.Limit && i < len(sr.Tags); i++ {
			if sr.Tags[i] {
				old := Addr(load(to, payload+i*WordSize))
				store(to, payload+i*WordSize, uint64(forward(old)))
			}
		}
	}

	// Cheney scan: walk the to-space copying referents.
	scan := toBase + WordSize
	for scan < allocPtr {
		hdr := load(to, scan)
		typeID := int(hdr & typeMask)
		length := int(hdr >> typeBits & lenMask)
		kind := Kind(hdr >> kindShift & 7)
		payload := scan + WordSize
		switch kind {
		case KindObject:
			refMap := h.types.RefMaps[typeID]
			for i := 0; i < length && i < len(refMap); i++ {
				if refMap[i] {
					old := Addr(load(to, payload+i*WordSize))
					store(to, payload+i*WordSize, uint64(forward(old)))
				}
			}
		case KindRefArr:
			for i := 0; i < length; i++ {
				old := Addr(load(to, payload+i*WordSize))
				store(to, payload+i*WordSize, uint64(forward(old)))
			}
		}
		scan += WordSize + payloadBytes(kind, length)
	}

	h.mem = toMem
	h.semi = newSemi
	h.base = toBase
	h.alloc = allocPtr
	h.setLimit()
	h.Collections++
}

// Snapshot captures the heap state for checkpointing: the geometry and
// the active semispace's allocated bytes, the only bytes a heap reads.
type Snapshot struct {
	Image []byte // bytes [Base, Alloc)
	Semi  int
	Base  int
	Alloc int
}

// Snapshot copies the heap state.
func (h *Heap) Snapshot() *Snapshot {
	return &Snapshot{
		Image: append([]byte(nil), h.mem[h.base:h.alloc]...),
		Semi:  h.semi,
		Base:  h.base,
		Alloc: h.alloc,
	}
}

// AppendCheckpoint appends the heap's checkpoint encoding to buf, read in
// place from the active semispace.
func (h *Heap) AppendCheckpoint(buf []byte) []byte {
	return appendCheckpoint(buf, h.semi, h.base, h.alloc, h.mem[h.base:h.alloc])
}

// AppendCheckpoint appends the snapshot's checkpoint encoding to buf: the
// bytes Heap.AppendCheckpoint wrote when the snapshot was taken.
func (s *Snapshot) AppendCheckpoint(buf []byte) []byte {
	return appendCheckpoint(buf, s.Semi, s.Base, s.Alloc, s.Image)
}

// appendCheckpoint is the heap's one checkpoint encoder: semi, base,
// alloc, the image length, and the image.
func appendCheckpoint(buf []byte, semi, base, alloc int, image []byte) []byte {
	buf = appendUvarint(buf, uint64(semi))
	buf = appendUvarint(buf, uint64(base))
	buf = appendUvarint(buf, uint64(alloc))
	buf = appendUvarint(buf, uint64(len(image)))
	return append(buf, image...)
}

// Restore reinstates a snapshot taken from this or an identically
// configured heap. It copies the image into the existing memory, which it
// reallocates only when that is too short to hold it.
func (h *Heap) Restore(s *Snapshot) {
	h.semi, h.base, h.alloc = s.Semi, s.Base, s.Alloc
	n := min(max(len(h.mem), s.Alloc), 2*s.Semi)
	if n > cap(h.mem) {
		h.mem = make([]byte, n)
	} else {
		h.mem = h.mem[:n]
	}
	copy(h.mem[s.Base:s.Alloc], s.Image)
	h.setLimit()
}

// LiveBytes walks the active semispace and reports allocated bytes,
// entity count — used by tests and the heap inspector.
func (h *Heap) LiveBytes() (bytes, entities int) {
	off := h.base + WordSize
	for off < h.alloc {
		w := h.word(off)
		kind := Kind(w >> kindShift & 7)
		length := int(w >> typeBits & lenMask)
		size := WordSize + payloadBytes(kind, length)
		bytes += size
		entities++
		off += size
	}
	return bytes, entities
}

// ErrSnapshot reports a snapshot encoding that cannot be restored: it is
// truncated, or describes a geometry no heap can have.
var ErrSnapshot = errors.New("heap: malformed snapshot")

// maxSemi keeps both semispaces addressable by a 32-bit Addr.
const maxSemi = 1 << 31

// DecodeSnapshot parses a checkpoint encoded by AppendCheckpoint,
// returning the rest of the input. It checks the geometry: a word-aligned
// semispace of at least one page whose two halves an Addr can reach, base
// at the start of one of them, alloc word-aligned in [base+8, base+semi],
// and an image of exactly alloc−base bytes. The snapshot's Image aliases
// data, so restoring it copies the image once: data must not change until
// the snapshot is restored or dropped.
func DecodeSnapshot(data []byte) (*Snapshot, []byte, error) {
	var f [4]uint64 // semi, base, alloc, image length
	for i := range f {
		var err error
		if f[i], data, err = readUvarint(data); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
	}
	semi, base, alloc, n := f[0], f[1], f[2], f[3]
	switch {
	case semi < minSemi || semi > maxSemi || semi%WordSize != 0:
		return nil, nil, fmt.Errorf("%w: semispace of %d bytes", ErrSnapshot, semi)
	case base != 0 && base != semi:
		return nil, nil, fmt.Errorf("%w: base %d is not a semispace start (semispace %d)", ErrSnapshot, base, semi)
	case alloc < base+WordSize || alloc > base+semi || alloc%WordSize != 0:
		return nil, nil, fmt.Errorf("%w: alloc %d outside [%d, %d]", ErrSnapshot, alloc, base+WordSize, base+semi)
	case n != alloc-base:
		return nil, nil, fmt.Errorf("%w: image of %d bytes, alloc-base is %d", ErrSnapshot, n, alloc-base)
	case n > uint64(len(data)):
		return nil, nil, fmt.Errorf("%w: image truncated (%d of %d bytes)", ErrSnapshot, len(data), n)
	}
	s := &Snapshot{
		Image: data[:n:n],
		Semi:  int(semi),
		Base:  int(base),
		Alloc: int(alloc),
	}
	return s, data[n:], nil
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func readUvarint(b []byte) (uint64, []byte, error) {
	var v uint64
	var shift uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if i > 9 || (i == 9 && c > 1) {
				return 0, nil, fmt.Errorf("heap: varint overflow")
			}
			return v | uint64(c)<<shift, b[i+1:], nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, nil, fmt.Errorf("heap: truncated varint")
}
