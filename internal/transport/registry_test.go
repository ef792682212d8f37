package transport

import (
	"reflect"
	"strings"
	"testing"
)

func TestPolicyNamesListsBuiltins(t *testing.T) {
	got := PolicyNames()
	want := []string{"bounded", "fifo", "lifo", "random"}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("PolicyNames() = %v, missing %q", got, w)
		}
	}
	if !sortedStrings(got) {
		t.Errorf("PolicyNames() not sorted: %v", got)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

func TestNewPolicyBuiltins(t *testing.T) {
	cases := []struct {
		name   string
		params map[string]float64
		want   reflect.Type
	}{
		{"", nil, reflect.TypeOf(&RandomPolicy{})}, // empty = default random
		{"random", nil, reflect.TypeOf(&RandomPolicy{})},
		{"fifo", nil, reflect.TypeOf(FIFOPolicy{})},
		{"lifo", nil, reflect.TypeOf(LIFOPolicy{})},
		{"bounded", map[string]float64{"bound": 4}, reflect.TypeOf(&BoundedDelayPolicy{})},
	}
	for _, tc := range cases {
		p, err := NewPolicy(tc.name, tc.params, 7)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", tc.name, err)
		}
		if reflect.TypeOf(p) != tc.want {
			t.Errorf("NewPolicy(%q) = %T, want %v", tc.name, p, tc.want)
		}
	}
	if p, _ := NewPolicy("bounded", map[string]float64{"bound": 4}, 7); p.(*BoundedDelayPolicy).Bound != 4 {
		t.Error("bound param not applied")
	}
}

func TestNewPolicyRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name   string
		params map[string]float64
		errHas string
	}{
		{"warp", nil, "unknown policy"},
		{"random", map[string]float64{"x": 1}, "unknown param"},
		{"fifo", map[string]float64{"bound": 1}, "unknown param"},
		{"bounded", nil, `missing param "bound"`},
		{"bounded", map[string]float64{"bound": -1}, "non-negative integer"},
		{"bounded", map[string]float64{"bound": 1.5}, "non-negative integer"},
		{"bounded", map[string]float64{"bound": 2, "slack": 1}, "unknown param"},
	}
	for _, tc := range cases {
		if _, err := NewPolicy(tc.name, tc.params, 1); err == nil {
			t.Errorf("NewPolicy(%q, %v): expected error", tc.name, tc.params)
		} else if !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("NewPolicy(%q, %v): error %q missing %q", tc.name, tc.params, err, tc.errHas)
		}
		if err := ValidatePolicy(tc.name, tc.params); err == nil {
			t.Errorf("ValidatePolicy(%q, %v): expected error", tc.name, tc.params)
		}
	}
}

// TestNewPolicyReturnsFreshInstances guards against shared stateful policies:
// two instances from the same spec must not share rng streams or counters.
func TestNewPolicyReturnsFreshInstances(t *testing.T) {
	a, err := NewPolicy("bounded", map[string]float64{"bound": 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPolicy("bounded", map[string]float64{"bound": 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("NewPolicy returned a shared instance")
	}
}
