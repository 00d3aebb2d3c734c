package cache

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// rawServer starts a Server and returns its address for raw (non-Client)
// connections that speak malformed protocol on purpose.
func rawServer(t *testing.T) string {
	t.Helper()
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	return conn
}

// expectClosed asserts the server closes the connection without sending
// a response.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	buf := make([]byte, 1)
	n, err := conn.Read(buf)
	if err == nil || n > 0 {
		t.Fatalf("server answered a malformed frame (n=%d err=%v); want close", n, err)
	}
}

// checkHealthy asserts the server still serves clean clients.
func checkHealthy(t *testing.T, addr string) {
	t.Helper()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatalf("server unreachable after abuse: %v", err)
	}
	defer cli.Close()
	if err := cli.Put("health", []byte("ok")); err != nil {
		t.Fatalf("server unhealthy after abuse: %v", err)
	}
}

func TestServerOversizedFrame(t *testing.T) {
	addr := rawServer(t)
	conn := rawDial(t, addr)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	checkHealthy(t, addr)
}

func TestServerUndersizedFrame(t *testing.T) {
	addr := rawServer(t)
	conn := rawDial(t, addr)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 2) // below the 5-byte minimum
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	checkHealthy(t, addr)
}

func TestServerTruncatedFrame(t *testing.T) {
	addr := rawServer(t)
	conn := rawDial(t, addr)
	// Announce 100 bytes, send only the op byte, then hang up.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[0:4], 100)
	hdr[4] = 'G'
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	checkHealthy(t, addr)
}

func TestServerBadKeyLength(t *testing.T) {
	addr := rawServer(t)
	conn := rawDial(t, addr)
	// keyLen larger than the frame body.
	body := make([]byte, 5)
	body[0] = 'G'
	binary.BigEndian.PutUint32(body[1:5], 9999)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := conn.Write(append(hdr[:], body...)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	checkHealthy(t, addr)
}

// 'I' was the counter op and 'K' the key listing; the store holds
// bytes under keys and serves them by key only, so each is answered
// like any other byte the protocol does not define — bare or inside a
// fenced envelope.
func TestServerUnknownOpcode(t *testing.T) {
	addr := rawServer(t)
	envelope := func(inner byte) []byte {
		return append(binary.BigEndian.AppendUint64(nil, 1), inner)
	}
	for _, tc := range []struct {
		name  string
		op    byte
		value []byte
	}{
		{"Z", 'Z', nil},
		{"I", 'I', nil},
		{"T around I", 'T', envelope('I')},
		{"T around G", 'T', envelope('G')},
		// The retired batched put, with what was a well-formed one-pair
		// blob ([u32 count][u32 keyLen][key][u32 valLen][val]).
		{"p", 'p', []byte{0, 0, 0, 1, 0, 0, 0, 1, 'k', 0, 0, 0, 1, 'v'}},
		{"T around p", 'T', append(envelope('p'), 0, 0, 0, 1, 0, 0, 0, 1, 'k', 0, 0, 0, 1, 'v')},
		// The retired key listing, with a prefix.
		{"K", 'K', nil},
	} {
		conn := rawDial(t, addr)
		if err := writeFrame(conn, tc.op, "key", tc.value); err != nil {
			t.Fatal(err)
		}
		status, payload, err := readResp(conn, nil)
		if err != nil {
			t.Fatalf("%s: no response: %v", tc.name, err)
		}
		if status != '!' || len(payload) == 0 {
			t.Fatalf("%s → status %q payload %q; want '!'", tc.name, status, payload)
		}
	}
	checkHealthy(t, addr)
}

func TestServerEmptyKeyOps(t *testing.T) {
	addr := rawServer(t)
	for _, op := range []byte{'P', 'G', 'D'} {
		conn := rawDial(t, addr)
		if err := writeFrame(conn, op, "", []byte("v")); err != nil {
			t.Fatal(err)
		}
		status, payload, err := readResp(conn, nil)
		if err != nil {
			t.Fatalf("op %q: no response to empty key: %v", op, err)
		}
		if status != '!' {
			t.Fatalf("op %q empty key → status %q payload %q; want '!'", op, status, payload)
		}
	}
	// 'L' (len) accepts an empty operand.
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Len(); err != nil {
		t.Fatalf("Len(): %v", err)
	}
}

func TestServerGarbageAfterValidRequest(t *testing.T) {
	addr := rawServer(t)
	conn := rawDial(t, addr)
	if err := writeFrame(conn, 'P', "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if status, _, err := readResp(conn, nil); err != nil || status != '+' {
		t.Fatalf("clean put failed: %q %v", status, err)
	}
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	checkHealthy(t, addr)
}

func TestReadFrameRejectsCorruptLengths(t *testing.T) {
	// Unit-level guard on the parser itself.
	for _, raw := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF},    // > maxFrame
		{0, 0, 0, 1},                // < min frame
		{0, 0, 0, 10, 'G', 0, 0, 0}, // truncated body
	} {
		if _, err := readFrame(newByteReader(raw)); err == nil {
			t.Fatalf("readFrame accepted corrupt input %v", raw)
		}
	}
}

type byteReader struct {
	data []byte
	off  int
}

func newByteReader(b []byte) *byteReader { return &byteReader{data: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
