package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestInputsDeterministic(t *testing.T) {
	if !reflect.DeepEqual(paperInputs(), paperInputs()) {
		t.Error("paper-sweep inputs differ between calls")
	}
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(largeInputs(7, i), largeInputs(7, i)) {
			t.Errorf("large-sweep sample %d differs for the same seed", i)
		}
	}
	if reflect.DeepEqual(largeInputs(7, 0), largeInputs(7, 1)) {
		t.Error("large-sweep samples 0 and 1 are the same design")
	}
	a, err := newServePlan(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newServePlan(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("serve-mix plans differ for the same seed")
	}
	draws := func(seed int64) []int {
		lc := &loadClient{plan: a, rnd: newClientRand(seed, 0)}
		var out []int
		for i := 0; i < 200; i++ {
			out = append(out, lc.draw())
		}
		return out
	}
	if !reflect.DeepEqual(draws(3), draws(3)) {
		t.Error("serve-mix request classes differ for the same seed")
	}
	if reflect.DeepEqual(draws(3), draws(4)) {
		t.Error("serve-mix request classes do not depend on the seed")
	}
}

func TestLargeSweepNeverReusesASeed(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100000; i++ {
		s := largeSeed(11, i)
		if seen[s] {
			t.Fatalf("sample %d reuses generator seed %d", i, s)
		}
		seen[s] = true
	}
}

// TestMetricNames checks every metric name and unit against the
// benchmark's naming rules and against BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not letters, digits, _, . and -", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s has unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark prints %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd)
	check("per_layer", bm.PerLayer, perLayer)
}

func TestPrintedMetricsCarryUnits(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o := newOutcome()
		o.attempted = 1
		for _, d := range defs(trace) {
			o.set(d.name, 1.5)
		}
		res, err := o.result(trace)
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range res.Metrics {
			if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("printed metric %q has unit %q", name, m.Unit)
			}
		}
		if len(res.Metrics) != len(defs(trace)) {
			t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs(trace)))
		}
	}
	o := newOutcome()
	o.attempted = 1
	if _, err := o.result(false); err == nil {
		t.Error("result accepted unmeasured end-to-end metrics")
	}
}

func TestCorruptTableRaisesMismatches(t *testing.T) {
	ref := &childResult{
		Tables: []string{"SWEEP a\n  4   1  1.00\n"},
		Rows:   [][]string{{"a          4   1"}},
	}
	res := &childResult{Tables: []string{ref.Tables[0]}, SynthRows: []string{ref.Rows[0][0]}}
	if n := compareTimed(res, ref); n != 0 {
		t.Fatalf("identical sample counted %d mismatches", n)
	}
	res.Tables[0] = strings.Replace(ref.Tables[0], "1.00", "1.01", 1)
	if n := compareTimed(res, ref); n != 1 {
		t.Errorf("one changed table byte counted %d mismatches, want 1", n)
	}
	res.Tables[0] = ref.Tables[0]
	res.SynthRows[0] = "a          4   2"
	if n := compareTimed(res, ref); n != 1 {
		t.Errorf("one changed synthesis row counted %d mismatches, want 1", n)
	}
}

func TestGoldenCheck(t *testing.T) {
	ins := []designInput{{Slack: 1, Orders: paperOrders}}
	ref := &childResult{CPs: []int{4}, Rows: [][]string{{"dealer     4   0", "x", "y", "dealer     5   1", "x", "y"}}}
	golden := "Circuit  Steps PM\ndealer     4   0\ndealer     5   1\n  paper   4   1\n"
	if n, notes := checkGolden(golden, ref, ins); n != 0 {
		t.Fatalf("matching golden counted %d mismatches: %v", n, notes)
	}
	if n, _ := checkGolden(strings.Replace(golden, "5   1", "5   2", 1), ref, ins); n != 1 {
		t.Errorf("one changed golden row counted %d mismatches, want 1", n)
	}
}

func TestCorruptServedRowRaisesMismatches(t *testing.T) {
	plan, err := newServePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	in := plan.synthInput(plan.emit[0])
	ref := librarySynth(in)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	sw := sweepInput{source: plan.sources[0], spec: plan.hotSweepSpec(0)}
	table, err := librarySweep(sw)
	if err != nil {
		t.Fatal(err)
	}
	synths := []served{{in: in, row: ref.row, artifact: ref.artifact}}
	sweeps := []sweepServed{{in: sw, table: table}}
	if n, notes := checkServed(synths, sweeps); n != 0 {
		t.Fatalf("library-equal responses counted %d mismatches: %v", n, notes)
	}
	synths[0].row.PowerReductionPct += 0.01
	if n, _ := checkServed(synths, sweeps); n != 1 {
		t.Errorf("one altered served row counted %d mismatches, want 1", n)
	}
	synths[0].row = ref.row
	synths[0].artifact[0] ^= 1
	if n, _ := checkServed(synths, sweeps); n != 1 {
		t.Errorf("altered served RTL counted %d mismatches, want 1", n)
	}
	synths[0].artifact = ref.artifact
	sweeps[0].table = strings.Replace(table, " ", "_", 1)
	if n, _ := checkServed(synths, sweeps); n != 1 {
		t.Errorf("one changed served table byte counted %d mismatches, want 1", n)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2}, 0.9); got != 1.9 {
		t.Errorf("p90 of {1,2} = %v, want 1.9", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no data = %v, want 0", got)
	}
}
