package cache

import (
	"testing"

	"stellaris/internal/wire"
)

// benchVectors are the weight sizes the benchmark's workloads move: the
// async workloads' 82 KB policy and lockstep_fat's 1 MB one.
var benchVectors = []struct {
	name string
	n    int
}{{"82KB", 82 << 10 / 8}, {"1MB", 1 << 20 / 8}}

// BenchmarkDecodeWeights times one weight payload's decode on the copy
// and loop slab paths (/copy skips on a big-endian host), into a vector
// the caller keeps (/into, what the workers do) and into fresh memory
// (/alloc, what the ladder's cache.dec_weights_us times). MB/s is of the
// payload.
func BenchmarkDecodeWeights(b *testing.B) {
	for _, v := range benchVectors {
		payload, err := EncodeWeights(&WeightsMsg{Version: 1, Weights: make([]float64, v.n)})
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []string{"copy", "loop"} {
			for _, dst := range []string{"into", "alloc"} {
				b.Run(v.name+"/"+path+"/"+dst, func(b *testing.B) {
					if path == "copy" && !wire.SlabIsMemory {
						b.Skip("big-endian host: no copy path")
					}
					defer func(was bool) { wire.SlabIsMemory = was }(wire.SlabIsMemory)
					wire.SlabIsMemory = path == "copy"
					var w []float64
					if dst == "into" {
						w = make([]float64, v.n)
					}
					b.SetBytes(int64(len(payload)))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := DecodeWeightsInto(w, payload); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkGet times one round trip for a weight-sized value over a
// loopback server: Get into fresh memory, GetInto into a buffer the
// caller keeps.
func BenchmarkGet(b *testing.B) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialWith(addr, DialOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	for _, v := range benchVectors {
		if err := cli.Put(v.name, make([]byte, 8*v.n)); err != nil {
			b.Fatal(err)
		}
		for _, op := range []string{"Get", "GetInto"} {
			b.Run(v.name+"/"+op, func(b *testing.B) {
				var buf []byte
				if op == "GetInto" {
					buf = make([]byte, 8*v.n)
				}
				b.SetBytes(int64(8 * v.n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cli.GetInto(v.name, buf); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
