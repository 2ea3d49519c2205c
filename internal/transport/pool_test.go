package transport

import (
	"runtime"
	"testing"
	"unsafe"
)

func TestBufferPoolClassRounding(t *testing.T) {
	var p BufferPool
	if b := p.Get(0); b != nil {
		t.Errorf("Get(0) = %v, want nil", b)
	}
	for _, c := range []struct{ n, wantCap int }{
		{1, 64}, {64, 64}, {65, 128}, {1000, 1024}, {1 << 16, 1 << 16},
		{1<<16 + 1, 1 << 17}, {1 << 20, 1 << 20},
	} {
		if b := p.Get(c.n); len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
	}
	// Past the largest class the allocator serves the request as is, and
	// Put does not keep what comes back.
	huge := p.Get(1<<20 + 1)
	if len(huge) != 1<<20+1 {
		t.Fatalf("Get past the pooled range: len %d", len(huge))
	}
	p.Put(huge)
	for c := range p.classes {
		if c > poolRetainMaxClass && len(p.classes[c]) != 0 {
			t.Errorf("class %d free list holds %d buffers, want none above the retention class", c, len(p.classes[c]))
		}
	}
}

// TestBufferPoolCarvedNeighboursStayApart: small buffers are carved out
// of one block; growing one past its capacity must copy it out, not run
// into the buffer carved next to it.
func TestBufferPoolCarvedNeighboursStayApart(t *testing.T) {
	var p BufferPool
	a, b := p.Get(64), p.Get(64)
	if len(p.classes[poolMinBits]) == 0 {
		t.Fatal("the first Get did not carve a block")
	}
	for i := range b {
		b[i] = 0xbb
	}
	grown := append(a, 0xaa)
	if &grown[0] == &a[0] {
		t.Fatal("append past a carved buffer's capacity grew in place")
	}
	for i, v := range b {
		if v != 0xbb {
			t.Fatalf("neighbour byte %d trampled: %#x", i, v)
		}
	}
}

func TestBufferPoolDropsForeignCapacities(t *testing.T) {
	var p BufferPool
	for _, b := range [][]byte{make([]byte, 100), make([]byte, 32), make([]byte, 0, 96), nil} {
		p.Put(b)
	}
	for c := range p.classes {
		if len(p.classes[c]) != 0 {
			t.Errorf("class %d kept a buffer it never handed out", c)
		}
	}
}

func TestBufferPoolRetentionBound(t *testing.T) {
	var p BufferPool
	for c := poolMinBits; c <= poolRetainMaxClass; c++ {
		for i := 0; i < 2*maxRetain(c)+2; i++ {
			p.Put(make([]byte, 1<<c))
		}
		if got, want := len(p.classes[c]), maxRetain(c); got != want {
			t.Errorf("class %d retains %d buffers, want %d", c, got, want)
		}
	}
	// Recycled buffers come back before anything is carved or allocated.
	want := unsafe.SliceData(p.classes[10][len(p.classes[10])-1][:1])
	if got := p.Get(600); unsafe.SliceData(got) != want {
		t.Error("Get did not reuse the most recently recycled buffer")
	}
}

// TestBufferPoolBigFramesRideTheGC: a buffer above the retention class
// is reused while traffic keeps asking for it — across BufferPools, the
// big pools are process-wide — and is gone once two collections pass
// without use: no free list pins a boot storm's high-water mark.
func TestBufferPoolBigFramesRideTheGC(t *testing.T) {
	var p, q BufferPool
	const n = 100 << 10 // class 17
	reused := false
	// sync.Pool may drop a Put (it does so at random under -race) and a
	// collection may land between Put and Get: retry, don't flake.
	for try := 0; try < 64 && !reused; try++ {
		b := p.Get(n)
		if len(b) != n || cap(b) != 1<<17 {
			t.Fatalf("Get(%d): len %d cap %d", n, len(b), cap(b))
		}
		p.Put(b)
		again := q.Get(n - 1)
		reused = unsafe.SliceData(again) == unsafe.SliceData(b) && len(again) == n-1
		q.Put(again)
	}
	if !reused {
		t.Fatal("a big buffer was never reused while in use")
	}
	if len(p.classes[17])+len(q.classes[17]) != 0 {
		t.Fatal("a big buffer landed in a per-pool free list")
	}
	runtime.GC()
	runtime.GC()
	for i := range bigPools {
		if v := bigPools[i].Get(); v != nil {
			t.Fatalf("big class %d still holds a buffer after two collections", poolRetainMaxClass+1+i)
		}
	}
}

func TestBufferPoolPutSmallDoesNotAllocate(t *testing.T) {
	var p BufferPool
	b := p.Get(256)
	if allocs := testing.AllocsPerRun(100, func() { p.Put(b); b = p.Get(256) }); allocs != 0 {
		t.Errorf("Put+Get of a small buffer: %v allocs/op, want 0", allocs)
	}
}
