package cache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"stellaris/internal/obs"
)

func TestPersistRecoverKeyspace(t *testing.T) {
	dir := t.TempDir()
	c, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.p == nil {
		t.Fatal("store not persistent")
	}
	if err := c.Put("weights/latest", []byte("w1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("traj/0/1", []byte("trajectory")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("doomed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, err := r.Get("weights/latest"); err != nil || string(v) != "w1" {
		t.Fatalf("weights/latest = %q, %v", v, err)
	}
	if v, err := r.Get("traj/0/1"); err != nil || string(v) != "trajectory" {
		t.Fatalf("traj = %q, %v", v, err)
	}
	if _, err := r.Get("doomed"); err == nil {
		t.Fatal("deleted key resurrected")
	}
	if n, _ := r.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

func TestPersistTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	c, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a record whose declared length exceeds
	// the bytes actually written.
	f, err := os.OpenFile(filepath.Join(dir, aofName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var torn []byte
	torn = binary.LittleEndian.AppendUint32(torn, 500)
	torn = append(torn, aofPut, 0, 0)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, err := r.Get("a"); err != nil || string(v) != "1" {
		t.Fatalf("a = %q, %v", v, err)
	}
	if v, err := r.Get("b"); err != nil || string(v) != "2" {
		t.Fatalf("b = %q, %v", v, err)
	}
}

func TestPersistCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, snapName)
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPersistentMemCache(dir); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// A snapshot of an earlier version is refused by the version check,
// and the refusal leaves the directory as it was: nothing is compacted
// over a file this build cannot read, and the AOF beside it is not
// replayed (so not cut back as a torn tail). Version 1 followed the
// values with a counter section; version 2 is this layout big-endian,
// and a file its own build wrote reads here as version 2<<24.
func TestPersistV1SnapshotRefused(t *testing.T) {
	snapshot := func(order binary.AppendByteOrder, version uint32, sections int) []byte {
		var payload []byte
		for range sections {
			payload = order.AppendUint32(payload, 0) // an empty section
		}
		snap := order.AppendUint32([]byte(snapMagic), version)
		snap = order.AppendUint64(snap, uint64(len(payload)))
		snap = append(snap, payload...)
		return order.AppendUint32(snap, crc32.ChecksumIEEE(payload))
	}
	for _, tc := range []struct {
		name string
		snap []byte
		want string
	}{
		{"v1", snapshot(binary.LittleEndian, 1, 2), "snapshot version 1 unsupported"},
		{"v2", snapshot(binary.LittleEndian, 2, 1), "snapshot version 2 unsupported"},
		{"v2 as its build wrote it", snapshot(binary.BigEndian, 2, 1), fmt.Sprintf("snapshot version %d unsupported", 2<<24)},
	} {
		dir := t.TempDir()
		aof := appendRecord(nil, aofPut, "k", []byte("v"))
		if err := os.WriteFile(filepath.Join(dir, snapName), tc.snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, aofName), aof, 0o644); err != nil {
			t.Fatal(err)
		}

		_, err := NewPersistentMemCache(dir)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s snapshot: err = %v, want the version error", tc.name, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 2 {
			t.Fatalf("%s: directory has %d entries (%v), want the two files written", tc.name, len(entries), err)
		}
		for name, want := range map[string][]byte{snapName: tc.snap, aofName: aof} {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: %s changed by the refused open (%v)", tc.name, name, err)
			}
		}
	}
}

// A journal holds puts and deletes. The retired counter records 'I' and
// 'C' take the path of any other unknown byte: replay stops there and
// the log is cut back to the last record it understood.
func TestPersistUnknownRecordOpEndsReplay(t *testing.T) {
	for _, op := range []byte{'I', 'C', 'Z'} {
		dir := t.TempDir()
		aof := appendRecord(nil, aofPut, "a", []byte("1"))
		aof = appendRecord(aof, op, "ctr", make([]byte, 8))
		aof = appendRecord(aof, aofPut, "b", []byte("2"))
		if err := os.WriteFile(filepath.Join(dir, aofName), aof, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewPersistentMemCache(dir)
		if err != nil {
			t.Fatalf("op %q: %v", op, err)
		}
		if keys, _ := c.Keys(""); len(keys) != 1 || keys[0] != "a" {
			t.Errorf("op %q: recovered %v, want [a]", op, keys)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestChaosPersistCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("compaction churn in -short mode")
	}
	dir := t.TempDir()
	c, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.InstrumentPersistence(reg)
	for i := 0; i < compactOps+10; i++ {
		if err := c.Put("spin", strconv.AppendInt(nil, int64(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(filepath.Join(dir, aofName))
	if err != nil {
		t.Fatal(err)
	}
	// Compaction fired mid-loop, so the AOF holds only the post-snapshot
	// tail, far below one record per op.
	if st.Size() > int64(compactOps) {
		t.Fatalf("aof still %d bytes after compaction", st.Size())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, err := r.Get("spin"); err != nil || string(v) != strconv.Itoa(compactOps+9) {
		t.Fatalf("value after compaction+recovery = %q, %v", v, err)
	}
}

// A full server restart over a persistent store must be invisible to a
// retrying client: in-flight ops ride through the bounce and the
// keyspace comes back intact.
func TestPersistentServerRestartClientRidesThrough(t *testing.T) {
	dir := t.TempDir()
	store, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	cli, err := DialWith(addr, DialOptions{
		DialTimeout: 200 * time.Millisecond,
		OpTimeout:   200 * time.Millisecond,
		Attempts:    40,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 10; i++ {
		if err := cli.Put(fmt.Sprintf("k/%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the server and store, then issue an op while it is down.
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	opDone := make(chan error, 1)
	go func() {
		opDone <- cli.Put("k/during", []byte("survived"))
	}()

	time.Sleep(100 * time.Millisecond)

	// Restart on the same address with a recovered store.
	store2, err := NewPersistentMemCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2 := NewServer(store2)
	var lerr error
	for i := 0; i < 100; i++ {
		if _, lerr = srv2.Listen(addr); lerr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lerr != nil {
		t.Fatalf("rebind: %v", lerr)
	}
	defer srv2.Close()

	if err := <-opDone; err != nil {
		t.Fatalf("op across restart: %v", err)
	}
	for i := 0; i < 10; i++ {
		v, err := cli.Get(fmt.Sprintf("k/%d", i))
		if err != nil || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("k/%d after restart = %v, %v", i, v, err)
		}
	}
	if v, err := cli.Get("k/during"); err != nil || string(v) != "survived" {
		t.Fatalf("k/during = %q, %v", v, err)
	}
	if cli.Stats().Reconnects == 0 {
		t.Fatal("client never reconnected — restart was not exercised")
	}
}
