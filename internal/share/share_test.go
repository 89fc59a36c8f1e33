package share

import (
	"reflect"
	"testing"
	"testing/quick"
)

// TestTable2Vectors checks the exact distributions the paper tabulates.
func TestTable2Vectors(t *testing.T) {
	cases := []struct {
		m    Model
		n    int
		want []int64
	}{
		{Linear, 5, []int64{1, 3, 5, 7, 9}},
		{Linear, 10, []int64{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}},
		{Equal, 5, []int64{5, 5, 5, 5, 5}},
		{Equal, 10, []int64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}},
		{Skewed, 5, []int64{1, 1, 1, 1, 21}},
		{Skewed, 10, []int64{1, 1, 1, 1, 1, 1, 1, 1, 1, 91}},
	}
	for _, c := range cases {
		got, err := Distribution(c.m, c.n)
		if err != nil {
			t.Fatalf("%v/%d: %v", c.m, c.n, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v/%d = %v, want %v", c.m, c.n, got, c.want)
		}
	}
}

// TestLinear20 spot-checks Table 2's 20-process linear row (1,3,...,39)
// and skewed row (1×19, 381).
func TestTable2Twenty(t *testing.T) {
	lin, _ := Distribution(Linear, 20)
	if lin[0] != 1 || lin[19] != 39 || Total(lin) != 400 {
		t.Errorf("linear20: first=%d last=%d total=%d", lin[0], lin[19], Total(lin))
	}
	sk, _ := Distribution(Skewed, 20)
	if sk[0] != 1 || sk[19] != 381 || Total(sk) != 400 {
		t.Errorf("skewed20: first=%d last=%d total=%d", sk[0], sk[19], Total(sk))
	}
}

// TestTotalsAreNSquared: every model totals n² for any n (the paper's
// convention for 25/100/400 shares).
func TestTotalsAreNSquared(t *testing.T) {
	f := func(n uint8) bool {
		nn := int(n%64) + 1
		for _, m := range Models {
			d, err := Distribution(m, nn)
			if err != nil {
				return false
			}
			if Total(d) != int64(nn*nn) {
				return false
			}
			for _, v := range d {
				if v <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributionErrors(t *testing.T) {
	if _, err := Distribution(Linear, 0); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Distribution(Model(99), 5); err == nil {
		t.Error("unknown model should error")
	}
}

func TestModelString(t *testing.T) {
	if Linear.String() != "linear" || Equal.String() != "equal" || Skewed.String() != "skewed" {
		t.Errorf("model names: %v %v %v", Linear, Equal, Skewed)
	}
	if Model(7).String() != "Model(7)" {
		t.Errorf("unknown model string: %v", Model(7))
	}
}
