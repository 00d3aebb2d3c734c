package cache

// The package's one buffer pool. Encoded payloads, request frames,
// replication record frames and MemCache.Put's copies are all drawn
// from it, and return to it through Recycle or, for a stored value,
// when its last reference is dropped (value.release). A frame that
// becomes a stored value is pooled up to maxPooledValue bytes (see
// storeBuf).
//
// Buffers come in size classes: up to minClass bytes one class, then
// eight equal steps per power of two, so a buffer is at most an eighth
// larger than what was asked for and a class fits every request
// between its lower neighbour and itself. A returned buffer goes to the
// largest class its capacity fills, whoever allocated it. Each class is
// a sync.Pool, which a collection empties, plus one spare that it does
// not (see spares).

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	minClassShift = 6 // the smallest class holds 64 bytes
	minClass      = 1 << minClassShift
	// numClasses covers every size up to maxFrame: a bigger buffer is
	// allocated and dropped outside the pool.
	numClasses = 1 + (28-minClassShift)*8
)

// bufPools holds each class's free buffers as pointers to their first
// byte: a pointer fits an interface word, so Put allocates nothing.
// A collection empties them; spares keeps the last buffer returned to
// each class up to maxSpare bytes through it, so a size used once per
// run (a model's encoded weights, say) is not allocated again every
// time a collection fell in between.
var (
	bufPools [numClasses]sync.Pool
	spares   [numClasses]atomic.Pointer[byte]
)

// maxSpare bounds the classes that keep a spare, and so what the pool
// holds when idle: one buffer per class up to 4 MB, about 25 MB if
// every class were used.
const maxSpare = 4 << 20

// poisonReleased, set by tests, fills every buffer with poisonByte as
// it returns to the pool, so a reader that outlives its reference sees
// the sentinel instead of plausible bytes.
var poisonReleased atomic.Bool

const poisonByte = 0xDB

// sizeClass returns the smallest class holding n bytes. A class of
// numClasses or more is outside the pool.
func sizeClass(n int) int {
	if n <= minClass {
		return 0
	}
	e := bits.Len(uint(n - 1)) // 2^(e-1) < n ≤ 2^e: the eighths are 2^(e-4)
	return 1 + (e-1-minClassShift)*8 + (n-1-1<<(e-1))>>(e-4)
}

// classSize is the capacity of a class's buffers.
func classSize(class int) int {
	if class == 0 {
		return minClass
	}
	e, k := minClassShift+(class-1)/8, (class-1)%8 // 2^e < size ≤ 2^(e+1)
	return 1<<e + (k+1)<<(e-3)
}

// getBuf returns an n-byte buffer whose capacity is its class's size.
// Its bytes are whatever the last user left: the caller overwrites all
// n.
func getBuf(n int) []byte {
	class := sizeClass(n)
	if class >= numClasses {
		return make([]byte, n)
	}
	size := classSize(class)
	if p := spares[class].Swap(nil); p != nil {
		return unsafe.Slice(p, size)[:n]
	}
	if p, _ := bufPools[class].Get().(unsafe.Pointer); p != nil {
		return unsafe.Slice((*byte)(p), size)[:n]
	}
	return make([]byte, n, size)
}

// putBuf returns b's array to the largest class its capacity fills.
// Nothing may read or write b afterwards.
func putBuf(b []byte) {
	if cap(b) < minClass {
		return
	}
	class := sizeClass(cap(b))
	if classSize(class) > cap(b) {
		class--
	}
	if class >= numClasses {
		return
	}
	b = b[:classSize(class)]
	if poisonReleased.Load() {
		b[0] = poisonByte
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
	p := unsafe.SliceData(b)
	if len(b) <= maxSpare && spares[class].CompareAndSwap(nil, p) {
		return
	}
	bufPools[class].Put(unsafe.Pointer(p))
}

// maxPooledValue is the largest frame that becomes a stored value
// drawn from the pool: a larger one is allocated, and left to the
// collector once its value is gone. Trajectories, gradients and the
// weights of the paper's model sizes (tens of KB) stay well below it.
// Megabyte frames do not: recycling them stops a run churning the heap,
// so the runtime returns pages to the OS that the next run's fresh
// allocations then fault back in, which made a 1 MB-weights run's
// set-up a third slower (EXPERIMENTS.md, "Recycled frames").
const maxPooledValue = 256 << 10

// storeBuf returns an n-byte buffer for a frame that may become a
// stored value, and the pool buffer to hand over with it: the same
// buffer up to maxPooledValue bytes, nil (nothing to return) above.
func storeBuf(n int) (b, buf []byte) {
	if n > maxPooledValue {
		return make([]byte, n), nil
	}
	b = getBuf(n)
	return b, b
}

// Recycle returns a buffer to the pool: an encoded payload once it has
// been handed off (Client.Put has written it when it returns;
// MemCache.Put copies), a request blob, any buffer the caller is done
// with. The caller must not touch b afterwards, nor recycle a buffer
// anything else still reads: a GetInto result while its bytes are in
// use, or a slice a store was given (putOwned), which returns to the
// pool by itself when its last reference is dropped.
func Recycle(b []byte) { putBuf(b) }
