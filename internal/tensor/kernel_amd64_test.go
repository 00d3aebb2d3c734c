package tensor

import (
	"bufio"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"stellaris/internal/rng"
)

// TestTanhKernelStandsDownWithoutFMAExp holds the init-time probe to its
// job in both directions, for each tanh kernel the CPU can run. Where
// math.Exp takes its FMA arm the kernel must be in use: a Go release
// that changes math.Exp or math.Tanh fails here, by name, instead of
// quietly running the scalar loop. Where it does not — GODEBUG=cpu.fma=off
// is Go's own way to be such a host, and the test re-executes itself
// under it — every probe must have said no, and TanhInto must still be
// math.Tanh.
func TestTanhKernelStandsDownWithoutFMAExp(t *testing.T) {
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, "cpu.fma=off") {
		if tanhOK || tanh512OK {
			t.Fatalf("tanhOK %v, tanh512OK %v under GODEBUG=cpu.fma=off: the probe table no longer separates math.Exp's two arms", tanhOK, tanh512OK)
		}
		r := rng.New(22)
		src, dst := make([]float64, 1<<16), make([]float64, 1<<16)
		for mix := 0; mix < numTanhMixes; mix++ {
			fillTanhMix(r, src, mix)
			TanhInto(dst, src)
			requireTanhBits(t, dst, src)
		}
		return
	}
	for _, k := range []struct {
		level, okName, name string
		in, admitted        bool
		kernel              func(dst, src *float64, n int)
	}{
		{level: "AVX2", okName: "tanhOK", name: "tanhAVX2", in: useAVX2, admitted: tanhOK, kernel: tanhAVX2},
		{level: "AVX-512", okName: "tanh512OK", name: "tanhAVX512", in: useAVX512, admitted: tanh512OK, kernel: tanhAVX512},
	} {
		switch {
		case !k.in || !hasFMA():
			t.Logf("no %s or no FMA on this CPU: nothing to probe (%s)", k.level, levelsInUse())
		case !k.admitted:
			t.Errorf("%s is false on a CPU with %s and FMA: %s no longer matches this toolchain's math.Tanh, and TanhInto has left it", k.okName, k.level, k.name)
			in, out := make([]float64, len(tanhProbeBits)), make([]float64, len(tanhProbeBits))
			for i, b := range tanhProbeBits {
				in[i] = math.Float64frombits(b)
			}
			k.kernel(&out[0], &in[0], len(in))
			requireTanhBits(t, out, in) // names the first probe input that differs
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^"+t.Name()+"$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+strings.TrimPrefix(godebug+",cpu.fma=off", ","))
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: "+t.Name()) {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// TestAVX512KernelsInUseWhereTheCPUHasThem fails where the kernel
// (Linux's /proc/cpuinfo) says the CPU has AVX-512F and its ZMM state
// enabled but init left useAVX512 off: a wrong CPUID bit or XCR0 mask in
// hasAVX512 would otherwise cost the 512-bit kernels' gain without a
// word. It logs the kernel levels in use, so that every test log says
// which legs of the kernel tests ran.
func TestAVX512KernelsInUseWhereTheCPUHasThem(t *testing.T) {
	t.Log(levelsInUse())
	if runtime.GOOS != "linux" {
		t.Skip("no /proc/cpuinfo to compare hasAVX512 with")
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare hasAVX512 with: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, flags, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		fs := strings.Fields(flags)
		if slices.Contains(fs, "avx512f") && slices.Contains(fs, "avx2") && !useAVX512 {
			t.Fatalf("/proc/cpuinfo lists avx512f and avx2, but useAVX512 is false (%s)", levelsInUse())
		}
		return
	}
	t.Skipf("no flags line in /proc/cpuinfo: %v", sc.Err())
}

// TestMaskedTailsCostNothing holds NewVec to its written tail. The
// 512-bit tile loads the bias and stores dst under a mask in a tile of
// 16 columns, reaching up to 120 bytes past the last of n columns, and
// a masked access whose idle lanes reach a page never touched pays an
// assist on every call. A 1x64·6 product with its bias, and then its
// dst, the last elements of a fresh 32 KB NewVec (so that the lanes
// past them fall on the page after) must take no longer than with both
// inside an allocation: the fastest of five alternating rounds each,
// within 2.5x and 100 ns. A preempted round can break that bound on
// working code, so the test fails only if each of three attempts does;
// the missing tail breaks it every time (the bias so placed read 324 ns
// a product against 34 ns). It is a timing test, so -short and the race
// detector skip it.
func TestMaskedTailsCostNothing(t *testing.T) {
	if !useAVX512 {
		t.Skipf("no masked tile on this CPU: %s", levelsInUse())
	}
	if testing.Short() || raceEnabled {
		t.Skip("a timing test: not under -short or the race detector")
	}
	r := rng.New(33)
	a, bt := randMat(r, 1, 64), randMat(r, 64, 6)
	inside := NewVec(64)
	bias, dst := inside[8:14], MatFrom(1, 6, inside[32:38])
	round := func(dst *Mat, bias []float64) float64 {
		const calls = 2000
		start := time.Now()
		for i := 0; i < calls; i++ {
			MatMulABTPacked(dst, a, bt, bias)
		}
		return float64(time.Since(start).Nanoseconds()) / calls
	}
	const size = 4096 // 32 KB
	for _, c := range []struct {
		what string
		dst  *Mat
		bias []float64
	}{
		{"bias", dst, NewVec(size)[size-6:]},
		{"dst", MatFrom(1, 6, NewVec(size)[size-6:]), bias},
	} {
		var placed, want float64
		for attempt := 0; attempt < 3; attempt++ {
			placed, want = math.Inf(1), math.Inf(1)
			for i := 0; i < 5; i++ {
				placed, want = min(placed, round(c.dst, c.bias)), min(want, round(dst, bias))
			}
			t.Logf("%s at the end of a fresh NewVec: %.0f ns a product, %.0f ns inside an allocation", c.what, placed, want)
			if placed <= 2.5*want+100 {
				break
			}
		}
		if placed > 2.5*want+100 {
			t.Errorf("%s at the end of a fresh NewVec: %.0f ns a product, against %.0f ns inside an allocation, in each of three attempts", c.what, placed, want)
		}
	}
}
