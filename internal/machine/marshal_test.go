package machine

import (
	"encoding/json"
	"testing"
)

func TestDesignJSONKeys(t *testing.T) {
	m := map[Design]float64{PMEMSpec: 1.29, HOPS: 1.20}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if want := `"PMEM-Spec":1.29`; !contains(s, want) {
		t.Errorf("JSON = %s, want key %q", s, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestParseDesign pins the one design-name parser every CLI shares:
// each Design.String name in any case, the short aliases, and a loud
// error for anything else.
func TestParseDesign(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Design
	}{
		{"IntelX86", IntelX86}, {"intelx86", IntelX86}, {"x86", IntelX86},
		{"DPO", DPO}, {"dpo", DPO},
		{"HOPS", HOPS}, {"Hops", HOPS},
		{"StrandWeaver", Strand}, {"strandweaver", Strand}, {"strand", Strand},
		{"PMEM-Spec", PMEMSpec}, {"pmem-spec", PMEMSpec}, {"pmemspec", PMEMSpec}, {"spec", PMEMSpec},
	} {
		got, err := ParseDesign(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDesign(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, d := range AllDesigns {
		if got, err := ParseDesign(d.String()); err != nil || got != d {
			t.Errorf("ParseDesign(%q) = %v, %v; want %v", d.String(), got, err, d)
		}
	}
	for _, bad := range []string{"", "NVDIMM-9000", "pmem spec", "strands"} {
		if _, err := ParseDesign(bad); err == nil {
			t.Errorf("ParseDesign(%q) accepted an unknown design", bad)
		}
	}
}
