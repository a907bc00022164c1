package stats

import (
	"os"
	"strings"
	"testing"
)

// TestExpVectorPathEnabled: on a CPU with AVX2 and FMA, and with no
// GODEBUG cpu.* switch changing which branch math.Exp runs, the self-check
// must accept the vector kernel — otherwise a broken kernel would silently
// fall back to math.Exp and the exactness tests would never run it.
func TestExpVectorPathEnabled(t *testing.T) {
	if !HasAVX2FMA() || strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("no AVX2+FMA, or GODEBUG changes the CPU features math.Exp sees")
	}
	if !fastExp {
		t.Fatal("vector exp disabled: the kernel does not reproduce math.Exp on the probe")
	}
}

// TestExpOctPathEnabled is TestExpVectorPathEnabled for the eight-lane
// stage on a CPU with AVX-512F.
func TestExpOctPathEnabled(t *testing.T) {
	if !HasAVX512() || strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("no AVX-512F, or GODEBUG changes the CPU features math.Exp sees")
	}
	if !fastOcts {
		t.Fatal("eight-lane exp disabled: the oct kernel does not reproduce math.Exp on the probe")
	}
}

// TestLogSumRecipPathEnabled: on a CPU with AVX-512F the self-check must
// accept LogSumRecip's kernel. math.Log has no FMA branch, so unlike the
// exp stages this holds under every GODEBUG, cpu.fma=off included.
func TestLogSumRecipPathEnabled(t *testing.T) {
	if !HasAVX512() {
		t.Skip("no AVX-512F")
	}
	if !LogSumRecipEnabled() {
		t.Fatal("eight-lane log disabled: the kernel does not reproduce math.Log on the probe")
	}
	t.Logf("eight-lane log enabled (GODEBUG=%q)", os.Getenv("GODEBUG"))
}
