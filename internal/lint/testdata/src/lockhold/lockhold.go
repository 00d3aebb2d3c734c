// Package lockhold is a lint fixture: channel operations, blocking
// cache.Client calls, and sleeps are forbidden lexically between
// mu.Lock() and mu.Unlock().
package lockhold

import (
	"net"
	"sync"
	"time"

	"stellaris/internal/cache"
)

type box struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	wg  sync.WaitGroup
	ch  chan int
	cli cache.Cache
	cn  cache.Conn
	ncl *cache.Client
	mem *cache.MemCache
	n   int
}

func (b *box) bad() {
	b.mu.Lock()
	b.ch <- 1   // want "channel send while holding b.mu"
	v := <-b.ch // want "channel receive while holding b.mu"
	_ = v
	_ = b.cli.Put("k", nil)      // want "blocking Cache.Put call while holding b.mu"
	_, _ = b.cli.Get("k")        // want "blocking Cache.Get call while holding b.mu"
	_, _ = b.cn.GetN(nil)        // want "blocking Conn.GetN call while holding b.mu"
	b.wg.Wait()                  // want "sync.WaitGroup.Wait while holding b.mu"
	time.Sleep(time.Millisecond) // want "time.Sleep while holding b.mu"
	b.mu.Unlock()
	b.ch <- 2 // fine: after the unlock
}

func (b *box) deferred() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // want "select (channel operations) while holding b.mu"
	case b.ch <- 1:
	}
}

func (b *box) selectWithDefault() {
	b.mu.Lock()
	defer b.mu.Unlock()
	select { // fine: a default clause means the select polls, never parks
	case b.ch <- 1:
	default:
		b.n++
	}
}

func (b *box) rlock() {
	b.rw.RLock()
	<-b.ch // want "channel receive while holding b.rw"
	b.rw.RUnlock()
}

func (b *box) earlyReturn(done bool) {
	b.mu.Lock()
	if done {
		b.mu.Unlock()
		b.ch <- 1 // fine: this path released the lock
		return
	}
	b.n++
	b.mu.Unlock()
}

func (b *box) goroutineIsFine() {
	b.mu.Lock()
	go func() { b.ch <- 1 }() // fine: the goroutine runs without the lock
	b.mu.Unlock()
}

func (b *box) fencedUnderLock() {
	b.mu.Lock()
	_ = b.ncl.PutFenced(1, "k", nil) // want "blocking Client.PutFenced call while holding b.mu"
	_ = b.ncl.DeleteFenced(1, "k")   // want "blocking Client.DeleteFenced call while holding b.mu"
	b.mu.Unlock()
	_ = b.ncl.PutFenced(1, "k", nil) // fine: after the unlock
}

func (b *box) vectoredWriteUnderLock(conn net.Conn, bufs net.Buffers) {
	b.mu.Lock()
	_, _ = bufs.WriteTo(conn) // want "net.Buffers.WriteTo (vectored write) while holding b.mu"
	_, _ = conn.Write(nil)    // want "net connection Write while holding b.mu"
	b.mu.Unlock()
	_, _ = bufs.WriteTo(conn) // fine: after the unlock
}

func (b *box) memCacheIsFine() {
	b.mu.Lock()
	_ = b.mem.Put("k", nil) // fine: MemCache ops are short in-memory sections
	b.mu.Unlock()
}

func (b *box) unlocked() {
	b.ch <- 1 // fine: no lock held
	_ = b.cli.Delete("k")
}

func (b *box) rangeUnderLock() {
	b.mu.Lock()
	for v := range b.ch { // want "range over channel while holding b.mu"
		b.n += v
	}
	b.mu.Unlock()
}

func (b *box) ifInitUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, err := b.cli.Get("k"); err != nil { // want "blocking Cache.Get call while holding b.mu"
		b.n++
	}
}

func (b *box) forPostUnderLock() {
	b.mu.Lock()
	for i := 0; i < 3; time.Sleep(time.Millisecond) { // want "time.Sleep while holding b.mu"
		i++
	}
	b.mu.Unlock()
}

func (b *box) replicaStopUnderLock(r *cache.Replica) {
	b.mu.Lock()
	r.Stop() // want "blocking Replica.Stop call while holding b.mu"
	b.mu.Unlock()
}

func (b *box) dialUnderLock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, err := cache.DialWith("127.0.0.1:1", cache.DialOptions{}) // want "cache.DialWith (network dial) while holding b.mu"
	if err == nil {
		b.ncl = c
	}
}

func (b *box) exempted() {
	b.mu.Lock()
	b.ch <- 3 //lint:allow lockhold buffered channel drained by the same test
	b.mu.Unlock()
}
