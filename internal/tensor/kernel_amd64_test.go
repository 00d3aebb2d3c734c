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
