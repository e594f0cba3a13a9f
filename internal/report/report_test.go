package report

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Cols: []string{"a", "longcol"}}
	tb.AddRow("x", "y")
	tb.AddRow("longervalue", "z")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"T", "a", "longcol", "longervalue", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and both rows must start at the same column widths.
	if len(lines) < 5 {
		t.Fatalf("too few lines: %d", len(lines))
	}
}

func TestFormatters(t *testing.T) {
	cases := map[string]string{
		Ns(1500 * time.Nanosecond): "1500ns",
		NsF(123.4):                 "123ns",
		MB(3 << 20):                "3.0MB",
		Mops(2_500_000):            "2.50Mops",
		F2(1.239):                  "1.24",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("formatter: got %q, want %q", got, want)
		}
	}
}

func TestRowWiderThanCols(t *testing.T) {
	tb := &Table{Title: "X", Cols: []string{"only"}}
	tb.AddRow("a", "extra")
	var buf bytes.Buffer
	tb.Fprint(&buf) // must not panic
	if !strings.Contains(buf.String(), "extra") {
		t.Fatal("extra cell dropped")
	}
}

func TestWriteBenchStampsEnvAndRoundTrips(t *testing.T) {
	type row struct {
		Name string  `json:"name"`
		P50  float64 `json:"p50_us"`
	}
	type results struct {
		Rows []row `json:"rows"`
	}
	in := results{Rows: []row{{"a", 1.5}, {"b", 2}}}
	env := Env{Experiment: "probe", N: 1000, Ops: 200, Seed: 7, DurationS: 0.25}
	path, err := WriteBench(t.TempDir(), env, in)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_probe.json" {
		t.Fatalf("path %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Env     Env     `json:"environment"`
		Results results `json:"results"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	// Every field is filled: the caller's five and the writer's four.
	got := reflect.ValueOf(out.Env)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).IsZero() {
			t.Errorf("environment field %s is empty", got.Type().Field(i).Name)
		}
	}
	if out.Env.Experiment != env.Experiment || out.Env.N != env.N || out.Env.Ops != env.Ops ||
		out.Env.Seed != env.Seed || out.Env.DurationS != env.DurationS {
		t.Errorf("caller's fields changed: %+v", out.Env)
	}
	if !reflect.DeepEqual(out.Results, in) {
		t.Errorf("results round-tripped to %+v, want %+v", out.Results, in)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]time.Duration{0: 1, 0.5: 5, 0.99: 9, 1: 10} {
		if got := Percentile(sorted, p); got != want {
			t.Errorf("Percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if Percentile([]float64(nil), 0.5) != 0 {
		t.Error("empty input must yield 0")
	}
}

func TestCSVOutput(t *testing.T) {
	tb := &Table{Title: "X", Cols: []string{"a", "b"}}
	tb.AddRow("1", "va,lue")
	tb.AddRow("2", `qu"ote`)
	var buf bytes.Buffer
	tb.FprintCSV(&buf)
	want := "# X\na,b\n1,\"va,lue\"\n2,\"qu\"\"ote\"\n"
	if buf.String() != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", buf.String(), want)
	}
}
