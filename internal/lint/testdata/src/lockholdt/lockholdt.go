// Package lockholdt is the transitive half of the lockhold fixture, run
// under the lockhold check: a call made while a mutex is held is
// flagged when the callee transitively reaches a blocking operation,
// with the chain printed. A call that blocks itself is reported as a
// direct blocking operation, not as a chain.
package lockholdt

import (
	"sync"
	"time"

	"stellaris/internal/cache"
)

type svc struct {
	mu   sync.Mutex
	ch   chan int
	mem  *cache.MemCache
	conn cache.Conn
	n    int
}

// pause blocks directly; callers one frame up are lexically invisible.
func (s *svc) pause() {
	time.Sleep(time.Millisecond)
}

// settle is two frames away from the sleep.
func (s *svc) settle() {
	s.pause()
}

func (s *svc) bad() {
	s.mu.Lock()
	s.settle() // want "lockholdt.svc.settle -> lockholdt.svc.pause -> time.Sleep"
	s.mu.Unlock()
}

func (s *svc) deferredUnlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settle() // want "transitively blocks"
}

func (s *svc) drainOne() {
	<-s.ch
}

func (s *svc) chanChain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainOne() // want "channel receive"
}

func (s *svc) directOpNotMine() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.conn.Put("k", nil) // want "blocking Conn.Put call while holding s.mu"
}

// tapLocked-style polling: a select with a default clause proceeds.
func (s *svc) poll() {
	select {
	case s.ch <- 1:
	default:
		s.n++
	}
}

func (s *svc) pollUnderLock() {
	s.mu.Lock()
	s.poll() // fine: select-with-default never parks
	s.mu.Unlock()
}

// Spawning a goroutine that blocks does not block the spawner.
func (s *svc) spawn() {
	go func() {
		<-s.ch
	}()
}

func (s *svc) spawnUnderLock() {
	s.mu.Lock()
	s.spawn() // fine: the blocking happens on the new goroutine
	s.mu.Unlock()
}

func (s *svc) memPut() {
	_ = s.mem.Put("k", nil)
}

func (s *svc) memUnderLock() {
	s.mu.Lock()
	s.memPut() // fine: MemCache ops are short in-memory critical sections
	s.mu.Unlock()
}

func (s *svc) afterUnlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.settle() // fine: the lock was released first
}

func (s *svc) allowed() {
	s.mu.Lock()
	s.settle() //lint:allow lockhold the sleep is a bounded debounce, measured under the lock budget test
	s.mu.Unlock()
}
