package cache

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"stellaris/internal/leaktest"
	"stellaris/internal/rng"
)

// flakyListener accepts connections and serves at most reqsPerConn
// requests on each before abruptly closing it — a server whose
// connections die under the client.
func flakyListener(t *testing.T, store *MemCache, reqsPerConn int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(store)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				fw := &frameWriter{w: conn}
				for i := 0; i < reqsPerConn; i++ {
					f, err := readFrame(br)
					if err != nil {
						return
					}
					srv.handle(fw, f)
					if err := fw.flush(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// blackHoleListener accepts connections and reads requests but never
// responds — the stalled-cache case only deadlines can detect.
func blackHoleListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func fastOpts() DialOptions {
	return DialOptions{
		OpTimeout:   200 * time.Millisecond,
		Attempts:    4,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		Seed:        1,
	}
}

func TestClientReconnectsAfterConnClose(t *testing.T) {
	leaktest.Check(t)
	store := NewMemCache()
	addr := flakyListener(t, store, 1) // every connection dies after one request
	cli, err := DialWith(addr, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 5; i++ {
		if err := cli.Put("k", []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	v, err := cli.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	st := cli.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("no reconnects recorded: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatalf("no retries recorded: %+v", st)
	}
}

func TestClientOpTimeout(t *testing.T) {
	addr := blackHoleListener(t)
	opts := fastOpts()
	opts.OpTimeout = 50 * time.Millisecond
	opts.Attempts = 2
	cli, err := DialWith(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	if _, err := cli.Get("k"); err == nil {
		t.Fatal("Get against black hole succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline not enforced: took %v", elapsed)
	}
	if st := cli.Stats(); st.Timeouts == 0 {
		t.Fatalf("no timeouts recorded: %+v", st)
	}
}

func TestClientNoRetryOnNotFound(t *testing.T) {
	_, cli := startServer(t)
	if _, err := cli.Get("missing"); !errors.As(err, &ErrNotFound{}) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if st := cli.Stats(); st.Retries != 0 {
		t.Fatalf("not-found burned retries: %+v", st)
	}
}

func TestClientNoRetryOnServerError(t *testing.T) {
	_, cli := startServer(t)
	// Empty key on a key-addressed op draws a '!' server response.
	if err := cli.Put("", []byte("v")); err == nil {
		t.Fatal("empty-key put accepted")
	}
	if st := cli.Stats(); st.Retries != 0 {
		t.Fatalf("server error burned retries: %+v", st)
	}
}

func TestClientCloseConcurrent(t *testing.T) {
	leaktest.Check(t)
	_, cli := startServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = cli.Put("k", []byte("v"))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Millisecond)
		if err := cli.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	wg.Wait()
	if err := cli.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := cli.Put("k", []byte("v")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("op after Close = %v, want ErrClientClosed", err)
	}
}

func TestClientSurvivesServerRestart(t *testing.T) {
	leaktest.Check(t)
	// Bind a listener, serve, close the whole server, restart on the
	// same port: the client must redial transparently.
	srv1 := NewServer(nil)
	addr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialWith(addr, DialOptions{
		OpTimeout: 200 * time.Millisecond, Attempts: 20,
		BackoffBase: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(nil)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	defer srv2.Close()
	if err := cli.Put("b", []byte("2")); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
	if st := cli.Stats(); st.Reconnects == 0 {
		t.Fatalf("no reconnect recorded: %+v", st)
	}
}

func TestDialOptionsDefaults(t *testing.T) {
	o := DialOptions{}.withDefaults()
	if o.DialTimeout != defaultDialTimeout || o.OpTimeout != defaultOpTimeout ||
		o.Attempts != defaultAttempts || o.BackoffBase != defaultBackoffBase ||
		o.BackoffMax != defaultBackoffMax {
		t.Fatalf("defaults wrong: %+v", o)
	}
	// Explicit values survive.
	o = DialOptions{OpTimeout: -1, Attempts: 7}.withDefaults()
	if o.OpTimeout != -1 || o.Attempts != 7 {
		t.Fatalf("explicit values clobbered: %+v", o)
	}
}

func TestClientBackoffBounded(t *testing.T) {
	cli := &Client{opts: DialOptions{
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  80 * time.Millisecond,
	}.withDefaults()}
	cli.jitter = rng.New(1)
	for attempt := 1; attempt < 40; attempt++ {
		d := cli.backoff(attempt)
		if d <= 0 || d > 80*time.Millisecond*3/2 {
			t.Fatalf("backoff(%d) = %v out of bounds", attempt, d)
		}
	}
}
