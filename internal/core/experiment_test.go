package core

import (
	"strings"
	"testing"

	"actorprof/internal/trace"
)

// TestEnvScale: ACTORPROF_SCALE unset is DefaultScale, a scale in 1..24
// is itself, and anything else that is set is an error naming it.
func TestEnvScale(t *testing.T) {
	for _, c := range []struct {
		env  string
		want int // 0: an error
	}{
		{"", DefaultScale},
		{"1", 1},
		{"16", 16},
		{"24", 24},
		{"0", 0},
		{"25", 0},
		{"26", 0},
		{"-3", 0},
		{"16x", 0},
		{" 16", 0},
	} {
		t.Setenv("ACTORPROF_SCALE", c.env)
		got, err := EnvScale()
		switch {
		case c.want == 0 && (err == nil || !strings.Contains(err.Error(), `"`+c.env+`"`)):
			t.Errorf("ACTORPROF_SCALE=%q: got %d, %v; want an error naming the value", c.env, got, err)
		case c.want != 0 && (err != nil || got != c.want):
			t.Errorf("ACTORPROF_SCALE=%q: got %d, %v; want %d", c.env, got, err, c.want)
		}
	}
	// RunTriangle reads it for a zero Scale, and fails rather than
	// running the default.
	t.Setenv("ACTORPROF_SCALE", "16x")
	if _, err := RunTriangle(TriangleExperiment{}); err == nil || !strings.Contains(err.Error(), `"16x"`) {
		t.Errorf("RunTriangle under ACTORPROF_SCALE=16x: err %v, want one naming it", err)
	}
}

// TestRunTriangleNeedsAMachine: RunTriangle has no default machine, so
// a zero PE count is an error rather than 16 PEs.
func TestRunTriangleNeedsAMachine(t *testing.T) {
	for _, exp := range []TriangleExperiment{
		{Scale: 7},
		{Scale: 7, PEsPerNode: 16},
		{Scale: 7, NumPEs: 16},
		{Scale: 7, NumPEs: 12, PEsPerNode: 8},
	} {
		if _, err := RunTriangle(exp); err == nil || !strings.Contains(err.Error(), "sim: ") {
			t.Errorf("%d PEs, %d per node: err %v, want the machine's", exp.NumPEs, exp.PEsPerNode, err)
		}
	}
}

// TestClaimArithmetic pins the claims' arithmetic on a hand-built
// Source: ratios of maxima, MAIN/COMM/PROC shares of the summed
// T_TOTAL, and the speedup by the longest PE.
func TestClaimArithmetic(t *testing.T) {
	slow := &trace.Summary{NumPEs: 2, Overall: []trace.OverallRecord{
		{PE: 0, TMain: 10, TProc: 30, TComm: 60, TTotal: 100},
		{PE: 1, TMain: 20, TProc: 20, TComm: 260, TTotal: 300},
	}}
	fast := &trace.Summary{NumPEs: 2, Overall: []trace.OverallRecord{
		{PE: 0, TMain: 50, TProc: 50, TComm: 50, TTotal: 150},
		{PE: 1, TTotal: 120},
	}}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MaxRatio", MaxRatio([]int64{3, 12, 5}, []int64{4, 2}), 3},
		{"MaxRatio over a zero maximum", MaxRatio([]int64{3}, []int64{0, 0}), 0},
		{"MaxRatio of nothing", MaxRatio(nil, nil), 0},
		{"MaxTotal", float64(MaxTotal(slow)), 300},
		{"Speedup", Speedup(slow, fast), 2},
		{"Speedup over an empty run", Speedup(slow, &trace.Summary{}), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if m, c, p := Shares(slow); m != 30.0/400 || c != 320.0/400 || p != 50.0/400 {
		t.Errorf("Shares = %v/%v/%v, want 0.075/0.8/0.125", m, c, p)
	}
	if m, c, p := Shares(&trace.Summary{}); m != 0 || c != 0 || p != 0 {
		t.Errorf("Shares of an empty run = %v/%v/%v, want 0", m, c, p)
	}
}
