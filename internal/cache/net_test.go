package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"stellaris/internal/leaktest"
)

// startServer returns a running server and a connected client; cleanup
// is registered on t.
func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return srv, cli
}

func TestClientServerRoundTrip(t *testing.T) {
	leaktest.Check(t)
	_, cli := startServer(t)
	if err := cli.Put("key", []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Get("key")
	if err != nil || string(v) != "value" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := cli.Delete("key"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get("key"); err == nil {
		t.Fatal("deleted key still readable")
	}
	var nf ErrNotFound
	if _, err := cli.Get("nope"); err != nil {
		nf = ErrNotFound{Key: "nope"}
		if err.Error() != nf.Error() {
			t.Fatalf("not-found error %v", err)
		}
	}
}

func TestClientIncrAndLen(t *testing.T) {
	_, cli := startServer(t)
	if err := cli.Put("a", nil); err != nil {
		t.Fatal(err)
	}
	n, err := cli.Len()
	if err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestClientKeys(t *testing.T) {
	_, cli := startServer(t)
	for i := 0; i < 3; i++ {
		if err := cli.Put(fmt.Sprintf("grad/%d", i), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.Put("weights/latest", []byte{2}); err != nil {
		t.Fatal(err)
	}
	keys, err := cli.Keys("grad/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "grad/0" {
		t.Fatalf("Keys = %v", keys)
	}
	empty, err := cli.Keys("zzz")
	if err != nil || empty != nil {
		t.Fatalf("empty prefix gave %v, %v", empty, err)
	}
}

func TestLargePayload(t *testing.T) {
	_, cli := startServer(t)
	// A policy-weights-sized payload (1 MiB).
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	if err := cli.Put("weights", big); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Get("weights")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large payload corrupted")
	}
}

func TestConcurrentClients(t *testing.T) {
	leaktest.Check(t)
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("c%d/k%d", c, i)
				if err := cli.Put(key, []byte(key)); err != nil {
					errs <- err
					return
				}
				v, err := cli.Get(key)
				if err != nil || string(v) != key {
					errs <- fmt.Errorf("get %q: %q %v", key, v, err)
					return
				}
				if err := cli.Put("shared", []byte(key)); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	n, err := cli.Len()
	if err != nil || n != 401 {
		t.Fatalf("Len = %d, %v; want 401 (8 × 50 private keys and the shared one)", n, err)
	}
}

func TestClientSharedStoreWithServer(t *testing.T) {
	store := NewMemCache()
	if err := store.Put("preloaded", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	v, err := cli.Get("preloaded")
	if err != nil || string(v) != "yes" {
		t.Fatalf("preloaded value %q, %v", v, err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	leaktest.Check(t)
	srv := NewServer(nil)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

func TestWeightsThroughNetwork(t *testing.T) {
	// End-to-end: encode → network → decode, the learner's policy-pull
	// path against a real TCP cache.
	_, cli := startServer(t)
	msg := &WeightsMsg{Version: 3, Weights: make([]float64, 10000)}
	for i := range msg.Weights {
		msg.Weights[i] = float64(i) * 0.25
	}
	b, err := EncodeWeights(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Put("weights/latest", b); err != nil {
		t.Fatal(err)
	}
	raw, err := cli.Get("weights/latest")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWeights(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 || got.Weights[9999] != 9999*0.25 {
		t.Fatal("weights corrupted through the network cache")
	}
}
