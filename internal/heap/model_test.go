package heap

import (
	"bytes"
	"math/rand"
	"testing"
)

// fullHeap is the reference for TestCompactHeapModel: a heap with both
// semispaces committed up front whose snapshots copy the whole 2×semi
// image, as every heap did before commitment and snapshots followed the
// allocated range. It runs the same allocator and collector, so any
// difference between the two heaps comes from bytes outside [base, alloc).
type fullHeap struct {
	*Heap
}

func newFullHeap(types *TypeTable, semi int) fullHeap {
	h := fullHeap{New(types, semi)}
	h.commitAll()
	return h
}

func (h fullHeap) commitAll() {
	full := make([]byte, 2*h.semi)
	copy(full, h.mem)
	h.mem = full
	h.setLimit()
}

type fullSnapshot struct {
	mem               []byte
	semi, base, alloc int
}

func (h fullHeap) snapshot() fullSnapshot {
	return fullSnapshot{append([]byte(nil), h.mem...), h.semi, h.base, h.alloc}
}

func (h fullHeap) restore(s fullSnapshot) {
	h.mem = append([]byte(nil), s.mem...)
	h.semi, h.base, h.alloc = s.semi, s.base, s.alloc
	h.setLimit()
}

// TestCompactHeapModel drives random alloc/store/collect/grow/snapshot/
// restore sequences against an on-demand heap with compact snapshots and
// against fullHeap. After every step both must agree on every entity's
// header and payload, on Used, LiveBytes and the active semispace's
// geometry, and on peeks of [ActiveBase, ActiveBase+Used): the bytes the
// compact heap leaves uncommitted or out of its snapshots are never
// observed.
func TestCompactHeapModel(t *testing.T) {
	const maxSemi = 1 << 16
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		types := testTypes()
		h := New(types, 4096)
		ref := newFullHeap(types, 4096)
		var roots, refRoots []Addr
		type snapPair struct {
			enc        []byte
			full       fullSnapshot
			roots, ref []Addr
		}
		var snaps []snapPair

		collect := func(grow bool) {
			visit := func(rs []Addr) RootSet {
				return func(v RootVisitor) {
					for i := range rs {
						v(&rs[i])
					}
				}
			}
			if grow {
				h.Grow(visit(roots), nil)
				ref.Grow(visit(refRoots), nil)
				ref.commitAll()
			} else {
				h.Collect(visit(roots), nil)
				ref.Collect(visit(refRoots), nil)
			}
		}
		alloc := func() {
			kind := Kind(rng.Intn(4))
			n := rng.Intn(24)
			if rng.Intn(40) == 0 {
				n = 200 + rng.Intn(1200)
			}
			typeID := rng.Intn(3)
			do := func(h *Heap) (Addr, error) {
				if kind == KindObject {
					return h.AllocObject(typeID, 2)
				}
				return h.AllocArray(kind, n)
			}
			for attempt := 0; ; attempt++ {
				a, err := do(h)
				b, errRef := do(ref.Heap)
				if (err == nil) != (errRef == nil) || a != b {
					t.Fatalf("seed %d: alloc diverged: %d/%v vs reference %d/%v", seed, a, err, b, errRef)
				}
				if err == nil {
					roots, refRoots = append(roots, a), append(refRoots, b)
					return
				}
				if err != ErrOutOfMemory {
					t.Fatal(err)
				}
				if attempt == 0 {
					collect(false)
				} else if h.SemiSize() < maxSemi {
					collect(true)
				} else {
					return
				}
			}
		}
		store := func() {
			if len(roots) == 0 {
				return
			}
			i := rng.Intn(len(roots))
			a := roots[i]
			n := h.Len(a)
			if n == 0 {
				return
			}
			slot := rng.Intn(n)
			switch h.KindOf(a) {
			case KindByteArr:
				v := byte(rng.Intn(256))
				h.StoreByte(a, slot, v)
				ref.StoreByte(refRoots[i], slot, v)
			case KindRefArr:
				j := rng.Intn(len(roots))
				h.StoreWord(a, slot, uint64(roots[j]))
				ref.StoreWord(refRoots[i], slot, uint64(refRoots[j]))
			case KindObject:
				if slot < len(types.RefMaps[h.TypeID(a)]) && types.RefMaps[h.TypeID(a)][slot] {
					j := rng.Intn(len(roots))
					h.StoreWord(a, slot, uint64(roots[j]))
					ref.StoreWord(refRoots[i], slot, uint64(refRoots[j]))
					return
				}
				fallthrough
			default:
				v := rng.Uint64()
				h.StoreWord(a, slot, v)
				ref.StoreWord(refRoots[i], slot, v)
			}
		}

		for step := 0; step < 600; step++ {
			switch op := rng.Intn(100); {
			case op < 45:
				alloc()
			case op < 80:
				store()
			case op < 86:
				// Drop some roots so collections reclaim garbage.
				if k := rng.Intn(len(roots) + 1); k < len(roots) {
					roots, refRoots = append(roots[:k:k], roots[k+1:]...), append(refRoots[:k:k], refRoots[k+1:]...)
				}
				collect(false)
			case op < 88:
				if h.SemiSize() < maxSemi {
					collect(true)
				}
			case op < 94:
				snaps = append(snaps, snapPair{h.AppendCheckpoint(nil), ref.snapshot(),
					append([]Addr(nil), roots...), append([]Addr(nil), refRoots...)})
			default:
				if len(snaps) == 0 {
					continue
				}
				s := snaps[rng.Intn(len(snaps))]
				dec, rest, err := DecodeSnapshot(s.enc)
				if err != nil || len(rest) != 0 {
					t.Fatalf("seed %d: decode: %v (%d trailing)", seed, err, len(rest))
				}
				h.Restore(dec)
				ref.restore(s.full)
				roots = append(roots[:0:0], s.roots...)
				refRoots = append(refRoots[:0:0], s.ref...)
			}
			sameHeaps(t, seed, step, h, ref.Heap, roots, refRoots)
		}
	}
}

func sameHeaps(t *testing.T, seed int64, step int, h, ref *Heap, roots, refRoots []Addr) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
	}
	if h.Used() != ref.Used() || h.ActiveBase() != ref.ActiveBase() ||
		h.SemiSize() != ref.SemiSize() || h.MemSize() != ref.MemSize() {
		fail("geometry: used %d base %d semi %d mem %d vs reference %d %d %d %d",
			h.Used(), h.ActiveBase(), h.SemiSize(), h.MemSize(),
			ref.Used(), ref.ActiveBase(), ref.SemiSize(), ref.MemSize())
	}
	lb, le := h.LiveBytes()
	rb, re := ref.LiveBytes()
	if lb != rb || le != re {
		fail("LiveBytes %d/%d vs reference %d/%d", lb, le, rb, re)
	}
	if !equalAddrs(roots, refRoots) {
		fail("roots diverged")
	}
	// Every entity: header and payload, through the accessors.
	for a := h.ActiveBase() + WordSize; int(a) < h.base+h.Used(); {
		if h.TypeID(a) != ref.TypeID(a) || h.KindOf(a) != ref.KindOf(a) || h.Len(a) != ref.Len(a) {
			fail("header at %d differs", a)
		}
		k, n := h.KindOf(a), h.Len(a)
		if k == KindByteArr {
			if !bytes.Equal(h.Bytes(a), ref.Bytes(a)) {
				fail("bytes at %d differ", a)
			}
		} else {
			for i := 0; i < n; i++ {
				if h.LoadWord(a, i) != ref.LoadWord(a, i) {
					fail("word %d of %d differs", i, a)
				}
			}
		}
		a += Addr(WordSize + payloadBytes(k, n))
	}
	// The peek server's view of the occupied region.
	p, q := make([]byte, h.Used()), make([]byte, ref.Used())
	if err := h.ReadBytes(h.ActiveBase(), p); err != nil {
		fail("peek: %v", err)
	}
	if err := ref.ReadBytes(ref.ActiveBase(), q); err != nil {
		fail("reference peek: %v", err)
	}
	if !bytes.Equal(p, q) {
		i := 0
		for p[i] == q[i] {
			i++
		}
		fail("peeks of the occupied region differ at +%d: %x vs %x", i, p[i&^7:i&^7+16], q[i&^7:i&^7+16])
	}
}

func equalAddrs(a, b []Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
