package heap

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func testTypes() *TypeTable {
	t := &TypeTable{}
	t.AddType("Plain", []bool{false, false}) // type 0: two prim fields
	t.AddType("Node", []bool{false, true})   // type 1: value, next(ref)
	t.AddType("Pair", []bool{true, true})    // type 2: two refs
	return t
}

func TestAllocAndAccess(t *testing.T) {
	h := New(testTypes(), 1<<16)
	a, err := h.AllocObject(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 {
		t.Fatal("allocated at null")
	}
	h.StoreWord(a, 0, 42)
	h.StoreWord(a, 1, ^uint64(0))
	if h.LoadWord(a, 0) != 42 || h.LoadWord(a, 1) != ^uint64(0) {
		t.Fatal("word round-trip failed")
	}
	if h.TypeID(a) != 0 || h.KindOf(a) != KindObject || h.Len(a) != 2 {
		t.Fatalf("header: type=%d kind=%d len=%d", h.TypeID(a), h.KindOf(a), h.Len(a))
	}
}

func TestArrays(t *testing.T) {
	h := New(testTypes(), 1<<16)
	ia, _ := h.AllocArray(KindInt64Arr, 10)
	for i := 0; i < 10; i++ {
		h.StoreWord(ia, i, uint64(i*i))
	}
	for i := 0; i < 10; i++ {
		if h.LoadWord(ia, i) != uint64(i*i) {
			t.Fatalf("elem %d", i)
		}
	}
	ba, _ := h.AllocArray(KindByteArr, 13)
	for i := 0; i < 13; i++ {
		h.StoreByte(ba, i, byte('a'+i))
	}
	if string(h.Bytes(ba)) != "abcdefghijklm" {
		t.Fatalf("bytes = %q", h.Bytes(ba))
	}
	if h.Len(ba) != 13 {
		t.Fatalf("byte array len = %d", h.Len(ba))
	}
	if err := h.CheckBounds(ia, 10); err == nil {
		t.Fatal("expected bounds error")
	}
	if err := h.CheckBounds(ia, -1); err == nil {
		t.Fatal("expected bounds error")
	}
	if err := h.CheckBounds(ia, 9); err != nil {
		t.Fatal(err)
	}
}

func TestZeroedAllocation(t *testing.T) {
	h := New(testTypes(), 4096)
	// Fill, collect with no roots (drop everything), refill: new memory
	// must be zeroed even though the semispace was previously used.
	a, _ := h.AllocObject(0, 2)
	h.StoreWord(a, 0, 0xdeadbeef)
	h.Collect(func(visit RootVisitor) {}, nil)
	h.Collect(func(visit RootVisitor) {}, nil) // back to the original space
	b, _ := h.AllocObject(0, 2)
	if h.LoadWord(b, 0) != 0 || h.LoadWord(b, 1) != 0 {
		t.Fatal("allocation not zeroed after semispace reuse")
	}
}

func TestOutOfMemory(t *testing.T) {
	h := New(testTypes(), 4096)
	var err error
	for i := 0; i < 10000; i++ {
		if _, err = h.AllocObject(0, 2); err != nil {
			break
		}
	}
	if err != ErrOutOfMemory {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestCollectPreservesLiveGraph(t *testing.T) {
	h := New(testTypes(), 1<<16)
	// Build a linked list of 100 nodes, root only the head.
	var head Addr
	var prev Addr
	for i := 0; i < 100; i++ {
		n, err := h.AllocObject(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.StoreWord(n, 0, uint64(i))
		if prev != 0 {
			h.StoreWord(prev, 1, uint64(n))
		} else {
			head = n
		}
		prev = n
	}
	// Garbage: unreferenced objects interleaved.
	for i := 0; i < 50; i++ {
		_, _ = h.AllocObject(0, 2)
	}
	before, _ := h.LiveBytes()
	h.Collect(func(visit RootVisitor) { visit(&head) }, nil)
	after, entities := h.LiveBytes()
	if entities != 100 {
		t.Fatalf("live entities after GC = %d, want 100", entities)
	}
	if after >= before {
		t.Fatalf("GC did not reclaim: before=%d after=%d", before, after)
	}
	// Walk the list: values 0..99 in order.
	n := head
	for i := 0; i < 100; i++ {
		if h.LoadWord(n, 0) != uint64(i) {
			t.Fatalf("node %d corrupted: %d", i, h.LoadWord(n, 0))
		}
		n = Addr(h.LoadWord(n, 1))
	}
	if n != 0 {
		t.Fatal("list not terminated")
	}
}

func TestCollectHandlesSharingAndCycles(t *testing.T) {
	h := New(testTypes(), 1<<16)
	a, _ := h.AllocObject(2, 2)
	b, _ := h.AllocObject(2, 2)
	// a and b point at each other, and both at a shared node.
	shared, _ := h.AllocObject(1, 2)
	h.StoreWord(shared, 0, 777)
	h.StoreWord(a, 0, uint64(b))
	h.StoreWord(a, 1, uint64(shared))
	h.StoreWord(b, 0, uint64(a))
	h.StoreWord(b, 1, uint64(shared))
	h.Collect(func(visit RootVisitor) { visit(&a) }, nil)
	b2 := Addr(h.LoadWord(a, 0))
	if Addr(h.LoadWord(b2, 0)) != a {
		t.Fatal("cycle broken by GC")
	}
	s1 := Addr(h.LoadWord(a, 1))
	s2 := Addr(h.LoadWord(b2, 1))
	if s1 != s2 {
		t.Fatal("shared object duplicated by GC")
	}
	if h.LoadWord(s1, 0) != 777 {
		t.Fatal("shared payload lost")
	}
	_, entities := h.LiveBytes()
	if entities != 3 {
		t.Fatalf("entities = %d, want 3", entities)
	}
}

func TestCollectByteAndRefArrays(t *testing.T) {
	h := New(testTypes(), 1<<16)
	ba, _ := h.AllocArray(KindByteArr, 5)
	copy(h.Bytes(ba), "hello")
	ra, _ := h.AllocArray(KindRefArr, 3)
	h.StoreWord(ra, 1, uint64(ba))
	h.Collect(func(visit RootVisitor) { visit(&ra) }, nil)
	nb := Addr(h.LoadWord(ra, 1))
	if string(h.Bytes(nb)) != "hello" {
		t.Fatalf("byte array payload lost: %q", h.Bytes(nb))
	}
	if h.LoadWord(ra, 0) != 0 || h.LoadWord(ra, 2) != 0 {
		t.Fatal("null elements disturbed")
	}
}

func TestGrowPreservesGraph(t *testing.T) {
	h := New(testTypes(), 4096)
	var roots []Addr
	for i := 0; i < 20; i++ {
		a, err := h.AllocObject(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.StoreWord(a, 0, uint64(1000+i))
		roots = append(roots, a)
	}
	oldSemi := h.SemiSize()
	h.Grow(func(visit RootVisitor) {
		for i := range roots {
			visit(&roots[i])
		}
	}, nil)
	if h.SemiSize() != 2*oldSemi {
		t.Fatalf("semi = %d, want %d", h.SemiSize(), 2*oldSemi)
	}
	for i, a := range roots {
		if h.LoadWord(a, 0) != uint64(1000+i) {
			t.Fatalf("object %d lost after grow", i)
		}
	}
}

func TestGCDeterminism(t *testing.T) {
	// Two identical allocation/collection sequences must produce identical
	// addresses — the property replay depends on.
	run := func() []Addr {
		h := New(testTypes(), 8192)
		var addrs []Addr
		var root Addr
		for i := 0; i < 200; i++ {
			a, err := h.AllocObject(1, 2)
			if err != nil {
				h.Collect(func(visit RootVisitor) { visit(&root) }, nil)
				a, err = h.AllocObject(1, 2)
				if err != nil {
					h.Grow(func(visit RootVisitor) { visit(&root) }, nil)
					a, _ = h.AllocObject(1, 2)
				}
			}
			if i%3 == 0 {
				h.StoreWord(a, 1, uint64(root))
				root = a
			}
			addrs = append(addrs, a)
		}
		return addrs
	}
	a1, a2 := run(), run()
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("allocation %d: addr %d vs %d", i, a1[i], a2[i])
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	h := New(testTypes(), 8192)
	a, _ := h.AllocObject(0, 2)
	h.StoreWord(a, 0, 123)
	snap := h.Snapshot()
	h.StoreWord(a, 0, 456)
	b, _ := h.AllocObject(0, 2)
	_ = b
	h.Restore(snap)
	if h.LoadWord(a, 0) != 123 {
		t.Fatalf("restore lost value: %d", h.LoadWord(a, 0))
	}
	if h.Used() != snap.Alloc-snap.Base {
		t.Fatal("restore did not rewind allocation pointer")
	}
}

func TestReadBytesBounds(t *testing.T) {
	h := New(testTypes(), 4096)
	buf := make([]byte, 16)
	if err := h.ReadBytes(0, buf); err != nil {
		t.Fatalf("in-bounds peek failed: %v", err)
	}
	if err := h.ReadBytes(Addr(h.MemSize()-8), buf); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

// TestReadBytesUncommitted: peeks cover both semispaces whether or not
// memory behind them was committed; never-committed bytes read as zero.
func TestReadBytesUncommitted(t *testing.T) {
	h := New(testTypes(), 1<<20)
	a, err := h.AllocArray(KindByteArr, 16)
	if err != nil {
		t.Fatal(err)
	}
	copy(h.Bytes(a), "sixteen bytes!!!")
	if len(h.mem) >= h.MemSize() {
		t.Fatalf("fresh heap committed %d of %d bytes", len(h.mem), h.MemSize())
	}
	for _, off := range []int{len(h.mem), h.semi + 64, h.MemSize() - 16} {
		buf := bytes.Repeat([]byte{0xff}, 16)
		if err := h.ReadBytes(Addr(off), buf); err != nil {
			t.Fatalf("peek at %d: %v", off, err)
		}
		if !bytes.Equal(buf, make([]byte, 16)) {
			t.Fatalf("peek at uncommitted %d = %x, want zeros", off, buf)
		}
	}
	// A peek across the end of committed memory keeps the committed part.
	h.mem[len(h.mem)-1] = 0xab
	buf := bytes.Repeat([]byte{0xff}, 16)
	if err := h.ReadBytes(Addr(len(h.mem)-8), buf); err != nil {
		t.Fatal(err)
	}
	if buf[7] != 0xab || !bytes.Equal(buf[8:], make([]byte, 8)) {
		t.Fatalf("straddling peek = %x", buf)
	}
}

// Property: after a collection with a random live set, every live object
// retains its payload and dead objects are gone.
func TestCollectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(testTypes(), 1<<16)
		type obj struct {
			addr Addr
			val  uint64
		}
		var live []obj
		for i := 0; i < 300; i++ {
			a, err := h.AllocObject(0, 2)
			if err != nil {
				return false
			}
			v := rng.Uint64()
			h.StoreWord(a, 0, v)
			if rng.Intn(2) == 0 {
				live = append(live, obj{a, v})
			}
		}
		h.Collect(func(visit RootVisitor) {
			for i := range live {
				visit(&live[i].addr)
			}
		}, nil)
		_, entities := h.LiveBytes()
		// Shared roots are impossible here, so entity count matches.
		if entities != len(live) {
			return false
		}
		for _, o := range live {
			if h.LoadWord(o.addr, 0) != o.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAlloc(b *testing.B) {
	h := New(testTypes(), 1<<24)
	var root Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := h.AllocObject(0, 2)
		if err != nil {
			h.Collect(func(visit RootVisitor) { visit(&root) }, nil)
			a, _ = h.AllocObject(0, 2)
		}
		_ = a
	}
}

func BenchmarkCollect(b *testing.B) {
	h := New(testTypes(), 1<<22)
	var head Addr
	for i := 0; i < 10000; i++ {
		n, _ := h.AllocObject(1, 2)
		h.StoreWord(n, 1, uint64(head))
		head = n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Collect(func(visit RootVisitor) { visit(&head) }, nil)
	}
}

func TestCollectStackRoots(t *testing.T) {
	h := New(testTypes(), 1<<16)
	seg, _ := h.AllocArray(KindInt64Arr, 16)
	obj, _ := h.AllocObject(1, 2)
	h.StoreWord(obj, 0, 4242)
	h.StoreWord(seg, 3, uint64(obj)) // ref in slot 3
	h.StoreWord(seg, 5, 999)         // prim in slot 5
	tags := make([]bool, 16)
	tags[3] = true
	stacks := []StackRoot{{Seg: &seg, Tags: tags, Limit: 8}}
	h.Collect(func(visit RootVisitor) {}, stacks)
	if h.Len(seg) != 16 {
		t.Fatal("segment lost")
	}
	moved := Addr(h.LoadWord(seg, 3))
	if h.LoadWord(moved, 0) != 4242 {
		t.Fatal("stack-referenced object lost")
	}
	if h.LoadWord(seg, 5) != 999 {
		t.Fatal("primitive slot disturbed")
	}
	_, entities := h.LiveBytes()
	if entities != 2 {
		t.Fatalf("entities = %d, want 2", entities)
	}
	// Slots beyond Limit are not scanned: a stale ref there must not
	// resurrect garbage.
	garbage, _ := h.AllocObject(0, 2)
	h.StoreWord(seg, 10, uint64(garbage))
	tags[10] = true
	h.Collect(func(visit RootVisitor) {}, []StackRoot{{Seg: &seg, Tags: tags, Limit: 8}})
	if _, entities := h.LiveBytes(); entities != 2 {
		t.Fatalf("beyond-limit slot scanned: %d entities", entities)
	}
}

func TestHeapSnapshotCodec(t *testing.T) {
	h := New(testTypes(), 8192)
	a, _ := h.AllocObject(1, 2)
	h.StoreWord(a, 0, 424242)
	snap := h.Snapshot()
	buf := snap.AppendCheckpoint([]byte("prefix"))
	if string(buf[:6]) != "prefix" {
		t.Fatal("AppendCheckpoint overwrote the bytes before it")
	}
	buf = buf[6:]
	if live := h.AppendCheckpoint(nil); string(live) != string(buf) {
		t.Fatal("the live heap and its snapshot encode to different bytes")
	}
	dec, rest, err := DecodeSnapshot(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("%v, %d trailing", err, len(rest))
	}
	if dec.Semi != snap.Semi || dec.Base != snap.Base || dec.Alloc != snap.Alloc {
		t.Fatal("header fields differ")
	}
	if string(dec.Image) != string(snap.Image) {
		t.Fatal("memory differs")
	}
	// Truncations error, never panic.
	for _, cut := range []int{0, 1, 2, 3, len(buf) / 2, len(buf) - 1} {
		if _, _, err := DecodeSnapshot(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	h2 := New(testTypes(), 8192)
	h2.Restore(dec)
	if h2.LoadWord(a, 0) != 424242 {
		t.Fatal("restore from decoded snapshot lost data")
	}
}
