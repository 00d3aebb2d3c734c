package cache

import (
	"bytes"
	"testing"
	"time"
)

// proxiedServer stands up server ← proxy ← client with the given fault
// config and fast client-side retry policy.
func proxiedServer(t *testing.T, cfg FaultConfig, opts DialOptions) (*FaultProxy, *Client) {
	t.Helper()
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewFaultProxy(addr, cfg)
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialWith(paddr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		proxy.Close()
		srv.Close()
	})
	return proxy, cli
}

func TestFaultProxyTransparentWhenQuiet(t *testing.T) {
	_, cli := proxiedServer(t, FaultConfig{}, fastOpts())
	payload := bytes.Repeat([]byte{0x42}, 100_000)
	if err := cli.Put("w", payload); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Get("w")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted through quiet proxy: %v", err)
	}
	if st := cli.Stats(); st.Retries != 0 || st.Reconnects != 0 {
		t.Fatalf("quiet proxy caused retries: %+v", st)
	}
}

func TestFaultProxyDropsRecovered(t *testing.T) {
	opts := fastOpts()
	opts.OpTimeout = 100 * time.Millisecond
	opts.Attempts = 30
	proxy, cli := proxiedServer(t, FaultConfig{DropRate: 0.3, Seed: 11}, opts)
	for i := 0; i < 10; i++ {
		if err := cli.Put("k", []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if proxy.Stats().Drops == 0 {
		t.Fatal("no drops injected at 30% drop rate")
	}
	if cli.Stats().Retries == 0 {
		t.Fatal("drops recovered without retries?")
	}
}

func TestFaultProxyClosesRecovered(t *testing.T) {
	opts := fastOpts()
	opts.Attempts = 30
	proxy, cli := proxiedServer(t, FaultConfig{CloseRate: 0.2, Seed: 12}, opts)
	for i := 0; i < 10; i++ {
		if err := cli.Put("k", []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st := proxy.Stats()
	if st.Closes == 0 {
		t.Fatal("no closes injected at 20% close rate")
	}
	if cli.Stats().Reconnects == 0 {
		t.Fatal("connection closes recovered without reconnects?")
	}
}

func TestFaultProxyCorruptionSurfacesNoPanic(t *testing.T) {
	opts := fastOpts()
	opts.OpTimeout = 100 * time.Millisecond
	opts.Attempts = 30
	proxy, cli := proxiedServer(t, FaultConfig{CorruptRate: 0.5, Seed: 13}, opts)
	// Large payloads guarantee many chunk rolls; ops may or may not
	// fail, but nothing may panic and the server must stay up.
	payload := bytes.Repeat([]byte{7}, 50_000)
	for i := 0; i < 5; i++ {
		_ = cli.Put("k", payload)
		_, _ = cli.Get("k")
	}
	if proxy.Stats().Corruptions == 0 {
		t.Fatal("no corruptions injected at 50% corrupt rate")
	}
	// The server must still answer a clean client.
	cli2, err := Dial(proxyTarget(proxy))
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if err := cli2.Put("sane", []byte("ok")); err != nil {
		t.Fatalf("server unhealthy after corruption storm: %v", err)
	}
}

func proxyTarget(p *FaultProxy) string { return p.target }

func TestFaultProxyDelay(t *testing.T) {
	proxy, cli := proxiedServer(t, FaultConfig{
		DelayRate: 1.0, MaxDelay: 2 * time.Millisecond, Seed: 14,
	}, fastOpts())
	for i := 0; i < 5; i++ {
		if err := cli.Put("k", []byte("v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if proxy.Stats().Delays == 0 {
		t.Fatal("no delays injected at 100% delay rate")
	}
}

func TestFaultProxyCloseIdempotentAndSeversConns(t *testing.T) {
	proxy, cli := proxiedServer(t, FaultConfig{}, DialOptions{
		OpTimeout: 100 * time.Millisecond, Attempts: 1,
	})
	if err := cli.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := proxy.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	// The proxied connection is gone and the proxy no longer listens;
	// with Attempts=1 the next op must fail.
	if err := cli.Put("k", []byte("v")); err == nil {
		t.Fatal("op through closed proxy succeeded")
	}
}

func TestFaultProxyUnreachableTarget(t *testing.T) {
	proxy := NewFaultProxy("127.0.0.1:1", FaultConfig{}) // nothing listens
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cli, err := DialWith(paddr, DialOptions{
		OpTimeout: 100 * time.Millisecond, Attempts: 2,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		// Accept may race the upstream dial failure; either outcome —
		// dial error or op error below — is a clean failure.
		return
	}
	defer cli.Close()
	if err := cli.Put("k", []byte("v")); err == nil {
		t.Fatal("op through proxy with dead upstream succeeded")
	}
}

func TestFrameParserChunkIndependence(t *testing.T) {
	// One 9-byte request frame (4-byte length prefix + 5-byte body)
	// followed by another, split at every possible boundary, must always
	// count exactly 2 frames.
	frame := []byte{0, 0, 0, 5, 'P', 0, 0, 0, 0}
	stream := append(append([]byte(nil), frame...), frame...)
	for cut := 1; cut < len(stream); cut++ {
		fp := &frameParser{}
		got := fp.feed(stream[:cut]) + fp.feed(stream[cut:])
		if got != 2 {
			t.Fatalf("cut %d: counted %d frames, want 2", cut, got)
		}
	}
}
