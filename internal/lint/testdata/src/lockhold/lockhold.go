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
	_ = b.cn.PutN(nil)           // want "blocking Conn.PutN call while holding b.mu"
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
	_ = b.ncl.PutNFenced(1, nil)     // want "blocking Client.PutNFenced call while holding b.mu"
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

func (b *box) exempted() {
	b.mu.Lock()
	b.ch <- 3 //lint:allow lockhold buffered channel drained by the same test
	b.mu.Unlock()
}
