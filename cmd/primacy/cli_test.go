package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"primacy"
)

func writeTestInput(t *testing.T, dir string, elems int) string {
	t.Helper()
	spec, ok := primacy.DatasetByName("num_comet")
	if !ok {
		t.Fatal("dataset missing")
	}
	path := filepath.Join(dir, "in.f64")
	if err := os.WriteFile(path, spec.GenerateBytes(elems), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseArgsValidation(t *testing.T) {
	cases := [][]string{
		{},                                  // no input
		{"-c", "a", "b"},                    // two inputs
		{"a"},                               // neither -c nor -d
		{"-c", "-d", "a"},                   // both
		{"-badflag", "a"},                   // unknown flag
		{"-c", "-chunk", "2147483656", "a"}, // chunk above what readers decode
	}
	for i, args := range cases {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("case %d (%v): accepted", i, args)
		}
	}
	c, err := parseArgs([]string{"-stats", "file"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.compress || !c.showStats {
		t.Fatal("-stats should imply compression")
	}
}

func TestOptionsMapping(t *testing.T) {
	c, err := parseArgs([]string{"-c", "-rows", "-identity", "-no-isobar",
		"-reuse-index", "-f32", "-solver", "lzo", "-chunk", "4096", "x"})
	if err != nil {
		t.Fatal(err)
	}
	opts := c.options()
	if opts.Linearization != primacy.LinearizeRows ||
		opts.Mapping != primacy.MapIdentity ||
		!opts.DisableISOBAR ||
		opts.IndexMode != primacy.IndexReuse ||
		opts.Precision != primacy.Float32 ||
		opts.Solver != "lzo" ||
		opts.ChunkBytes != 4096 {
		t.Fatalf("options mapping broken: %+v", opts)
	}
}

// TestPrecondFlag: -precond selects a preconditioner mode (v3 container on
// disk), round-trips, and rejects unknown modes at parse time.
func TestPrecondFlag(t *testing.T) {
	c, err := parseArgs([]string{"-c", "-precond", "aposteriori", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if c.options().Precond.Selection != primacy.PrecondAPosteriori {
		t.Fatalf("options mapping broken: %+v", c.options())
	}
	if _, err := parseArgs([]string{"-c", "-precond", "nope", "x"}); err == nil {
		t.Fatal("unknown precond mode accepted")
	}

	dir := t.TempDir()
	in := writeTestInput(t, dir, 5_000)
	raw, _ := os.ReadFile(in)
	var out bytes.Buffer
	c, err = parseArgs([]string{"-c", "-workers", "1", "-precond", "apriori", in})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.run(&out); err != nil {
		t.Fatal(err)
	}
	enc, err := os.ReadFile(in + ".prm")
	if err != nil {
		t.Fatal(err)
	}
	if string(enc[:4]) != "PRM3" {
		t.Fatalf("-precond container magic %q, want PRM3", enc[:4])
	}
	restored := filepath.Join(dir, "rt.f64")
	d, err := parseArgs([]string{"-d", "-o", restored, in + ".prm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.run(&out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("-precond round trip mismatch")
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := writeTestInput(t, dir, 20_000)
	raw, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	c, err := parseArgs([]string{"-c", in})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ".prm") {
		t.Fatalf("compress output: %q", out.String())
	}

	restored := filepath.Join(dir, "rt.f64")
	d, err := parseArgs([]string{"-d", "-o", restored, in + ".prm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.run(&out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("CLI round trip mismatch")
	}
}

func TestSequentialWorkerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := writeTestInput(t, dir, 5_000)
	raw, _ := os.ReadFile(in)
	var out bytes.Buffer
	c, err := parseArgs([]string{"-c", "-workers", "1", in})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.run(&out); err != nil {
		t.Fatal(err)
	}
	d, err := parseArgs([]string{"-d", in + ".prm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.run(&out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(in) // .prm stripped back to original name
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("sequential round trip mismatch")
	}
}

func TestStatsOutput(t *testing.T) {
	dir := t.TempDir()
	in := writeTestInput(t, dir, 10_000)
	var out bytes.Buffer
	c, err := parseArgs([]string{"-stats", in})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"compression ratio", "alpha1", "sigma_ho", "preconditioner"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stats output missing %q:\n%s", want, out.String())
		}
	}
	// No output file should have been produced.
	if _, err := os.Stat(in + ".prm"); err == nil {
		t.Fatal("-stats wrote an output file")
	}
}

func TestMissingInputFile(t *testing.T) {
	c, err := parseArgs([]string{"-c", filepath.Join(t.TempDir(), "missing.f64")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.run(&bytes.Buffer{}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestDecompressGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk.prm")
	if err := os.WriteFile(path, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := parseArgs([]string{"-d", path})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.run(&bytes.Buffer{}); err == nil {
		t.Fatal("garbage container accepted")
	}
}
