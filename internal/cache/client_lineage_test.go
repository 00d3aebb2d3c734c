package cache

import (
	"testing"

	"stellaris/internal/obs/lineage"
)

// TestClientLineageHops checks the client records put/fetched hops for
// data keys when wired with a lineage store.
func TestClientLineageHops(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var now float64
	lin := lineage.New(func() float64 { now++; return now }, lineage.Options{})
	cli, err := DialWith(addr, DialOptions{Lineage: lin, LineageName: "actor/0#0"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Put("traj/0/0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Get("traj/0/0"); err != nil {
		t.Fatal(err)
	}
	// Non-data keys must not pollute the trace store.
	if err := cli.Put("weights/latest", []byte("y")); err != nil {
		t.Fatal(err)
	}

	tl := lin.Timeline("traj/0/0")
	if len(tl) != 2 || tl[0].Hop != lineage.HopPut || tl[1].Hop != lineage.HopFetched {
		t.Fatalf("client hops: %+v", tl)
	}
	if tl[0].Actor != "actor/0#0" {
		t.Fatalf("hop actor %q", tl[0].Actor)
	}
	if got := lin.Timeline("weights/latest"); got != nil {
		t.Fatalf("non-data key traced: %+v", got)
	}
}
