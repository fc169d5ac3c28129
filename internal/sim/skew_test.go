package sim

import "testing"

func TestSkewCharge(t *testing.T) {
	cases := []struct {
		n, pct, want int64
	}{
		{100, 0, 100},
		{100, 25, 125},
		{100, 100, 200},
		{3, 33, 3}, // 3*33/100 truncates to 0
		{0, 50, 0},
		{100, -10, 100}, // negative skew is "no skew"
	}
	for _, tc := range cases {
		if got := SkewCharge(tc.n, tc.pct); got != tc.want {
			t.Errorf("SkewCharge(%d, %d) = %d, want %d", tc.n, tc.pct, got, tc.want)
		}
	}
}

// TestVirtualSkewOnCharges: a skewed Virtual clock inflates every charge
// by exactly skew/100.
func TestVirtualSkewOnCharges(t *testing.T) {
	c := NewClock(Virtual)
	c.SetSkewPercent(25)
	c.Charge(100)
	if got := c.Now(); got != 125 {
		t.Errorf("Now() = %d after Charge(100) at 25%% skew, want 125", got)
	}
	c.Charge(100)
	if got := c.Now(); got != 250 {
		t.Errorf("Now() = %d after second Charge(100), want 250", got)
	}
}
