package cache

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"stellaris/internal/leaktest"
)

// getIntoContract holds one GetInto implementation to its contract:
// the value lands in the caller's array when cap(buf) holds it and in
// fresh memory when it does not, and a missing key is ErrNotFound while
// a key stored empty is a non-nil empty value — exactly as Get has it.
// put stores through the implementation under test.
func getIntoContract(t *testing.T, put func(key string, val []byte) error, getInto func(key string, buf []byte) ([]byte, error)) {
	t.Helper()
	val := filled('v', 1000)
	if err := put("traj/v", val); err != nil {
		t.Fatal(err)
	}
	if err := put("traj/empty", nil); err != nil {
		t.Fatal(err)
	}

	roomy := make([]byte, 3, 1024)
	got, err := getInto("traj/v", roomy)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("into a roomy buffer: %d bytes, %v", len(got), err)
	}
	if &got[0] != &roomy[:1][0] {
		t.Fatal("a buffer with room was not reused")
	}

	small := filled('s', 10)
	got, err = getInto("traj/v", small[:0])
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("into a small buffer: %d bytes, %v", len(got), err)
	}
	if !bytes.Equal(small, filled('s', 10)) {
		t.Fatal("a buffer without room was written")
	}

	for _, buf := range [][]byte{nil, make([]byte, 0, 8)} {
		if got, err := getInto("traj/empty", buf); err != nil || got == nil || len(got) != 0 {
			t.Fatalf("stored-empty value into cap %d: %q (nil=%v), %v", cap(buf), got, got == nil, err)
		}
		if got, err := getInto("traj/missing", buf); !errors.As(err, new(ErrNotFound)) || got != nil {
			t.Fatalf("missing key into cap %d: %q, %v; want ErrNotFound", cap(buf), got, err)
		}
	}
}

func TestGetIntoMemCache(t *testing.T) {
	c := NewMemCache()
	getIntoContract(t, c.Put, c.GetInto)
}

func TestGetIntoClient(t *testing.T) {
	leaktest.Check(t)
	_, cli := startServer(t)
	getIntoContract(t, cli.Put, cli.GetInto)
}

func TestGetIntoShardedClient(t *testing.T) {
	leaktest.Check(t)
	tc := startTestCluster(t, 3, false)
	sc, err := DialSharded(tc.topo, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	getIntoContract(t, sc.Put, sc.GetInto)
}

// TestGetIntoSurvivesDroppedChunks: through a proxy dropping chunks of a
// 20 KB response, attempts that die mid-read scribble on the caller's
// buffer, and the retry that succeeds still returns exactly the value.
func TestGetIntoSurvivesDroppedChunks(t *testing.T) {
	opts := fastOpts()
	opts.OpTimeout = 100 * time.Millisecond
	opts.Attempts = 30
	proxy, cli := proxiedServer(t, FaultConfig{DropRate: 0.02, Seed: 21}, opts)
	direct, err := Dial(proxyTarget(proxy))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	val := make([]byte, 20<<10) // 20 one-KB proxy chunks
	for i := range val {
		val[i] = byte(i * 7)
	}
	if err := direct.Put("grad/big", val); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(val))
	for i := 0; cli.Stats().Retries == 0 || i < 3; i++ {
		if i == 100 {
			t.Fatal("100 reads through a 2 % chunk drop rate needed no retry")
		}
		got, err := cli.GetInto("grad/big", buf)
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("read %d: %d bytes, %v", i, len(got), err)
		}
	}
}
