package tensor

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"stellaris/internal/rng"
)

// TestTanhKernelStandsDownWithoutFMAExp holds the init-time probe to its
// job in both directions. Where math.Exp takes its FMA arm the kernel
// must be in use: a Go release that changes math.Exp or math.Tanh fails
// here, by name, instead of quietly running the scalar loop. Where it
// does not — GODEBUG=cpu.fma=off is Go's own way to be such a host, and
// the test re-executes itself under it — the probe must have said no,
// and TanhInto must still be math.Tanh.
func TestTanhKernelStandsDownWithoutFMAExp(t *testing.T) {
	godebug := os.Getenv("GODEBUG")
	if strings.Contains(godebug, "cpu.fma=off") {
		if tanhOK {
			t.Fatal("tanhOK is true under GODEBUG=cpu.fma=off: the probe table no longer separates math.Exp's two arms")
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
	switch {
	case !useAVX2 || !hasFMA():
		t.Logf("no AVX2 or no FMA on this CPU (useAVX2 %v): nothing to probe, tanhOK %v", useAVX2, tanhOK)
	case !tanhOK:
		t.Error("tanhOK is false on a CPU with AVX2 and FMA: tanhAVX2 no longer matches this toolchain's math.Tanh, and every Tanh layer is back on the scalar loop")
		in, out := make([]float64, len(tanhProbeBits)), make([]float64, len(tanhProbeBits))
		for i, b := range tanhProbeBits {
			in[i] = math.Float64frombits(b)
		}
		tanhAVX2(&out[0], &in[0], len(in))
		requireTanhBits(t, out, in) // names the first probe input that differs
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^"+t.Name()+"$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+strings.TrimPrefix(godebug+",cpu.fma=off", ","))
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: "+t.Name()) {
		t.Fatalf("under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}
