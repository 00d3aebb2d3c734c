package cache

import (
	"testing"

	"stellaris/internal/obs"
)

// TestServerAndClientInstrumentation drives ops through an instrumented
// server/client pair and checks the registry saw them.
func TestServerAndClientInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(nil)
	srv.Instrument(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialWith(addr, DialOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Put("a", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get("missing"); err == nil {
		t.Fatal("expected ErrNotFound")
	}

	snap := reg.Snapshot()
	if p, ok := snap.Find("cache_server_ops_total", map[string]string{"op": "put"}); !ok || p.Value != 1 {
		t.Fatalf("server put count: %+v ok=%v", p, ok)
	}
	if p, ok := snap.Find("cache_server_ops_total", map[string]string{"op": "get"}); !ok || p.Value != 2 {
		t.Fatalf("server get count: %+v ok=%v", p, ok)
	}
	// The latency is observed after the reply is flushed (it covers the
	// flush), so it is read once Close has drained the handlers.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	h, ok := snap.FindHistogram("cache_server_op_seconds", map[string]string{"op": "get"})
	if !ok || h.Count != 2 {
		t.Fatalf("server op latency histogram: %+v ok=%v", h, ok)
	}
	ch, ok := snap.FindHistogram("cache_client_op_seconds", map[string]string{"op": "put"})
	if !ok || ch.Count != 1 || ch.Sum <= 0 {
		t.Fatalf("client op latency histogram: %+v ok=%v", ch, ok)
	}
	in, ok := snap.Find("cache_server_frame_bytes_total", map[string]string{"dir": "in"})
	if !ok || in.Value <= 0 {
		t.Fatalf("frame bytes in: %+v ok=%v", in, ok)
	}
	out, ok := snap.Find("cache_server_frame_bytes_total", map[string]string{"dir": "out"})
	if !ok || out.Value <= 0 {
		t.Fatalf("frame bytes out: %+v ok=%v", out, ok)
	}
	if p, ok := snap.Find("cache_server_connections_total", nil); !ok || p.Value != 1 {
		t.Fatalf("connections: %+v ok=%v", p, ok)
	}
}

// TestClientEventsReachRegistry kills the server mid-session and checks
// retry/reconnect events land both in Stats and the shared registry.
func TestClientEventsReachRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialWith(addr, DialOptions{Obs: reg, Attempts: 3, OpTimeout: 200_000_000})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	if err := cli.Put("k", []byte("v2")); err == nil {
		t.Fatal("put succeeded against a dead server")
	}
	st := cli.Stats()
	if st.Retries == 0 {
		t.Fatalf("no retries recorded: %+v", st)
	}
	snap := reg.Snapshot()
	p, ok := snap.Find("cache_client_events_total", map[string]string{"event": "retry"})
	if !ok || int64(p.Value) != st.Retries {
		t.Fatalf("registry retry mirror = %+v (ok=%v), stats %+v", p, ok, st)
	}
}
