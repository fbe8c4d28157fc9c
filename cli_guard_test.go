package mcpat_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mcpat"
	"mcpat/internal/cliutil"
)

// TestCLIOutputGuard: mcpat and mcpat-m5 run the output guard that
// /v1/evaluate runs. An input whose report it rejects (runtime power
// far beyond TDP, which /v1/evaluate answers with 422) exits 3 with the
// guard's finding instead of printing as a valid chip; a plausible
// input of the same chip still prints.
func TestCLIOutputGuard(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir, "./cmd/mcpat", "./cmd/mcpat-m5").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	p, err := mcpat.PresetByName("niagara")
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := mcpat.WriteXML(&doc, p.Config); err != nil {
		t.Fatal(err)
	}
	const core = `<component id="system.core" type="Core">`
	if !strings.Contains(doc.String(), core) {
		t.Fatalf("template has no %s", core)
	}
	chipXML := write("chip.xml", doc.String())
	hotXML := write("hot.xml", strings.Replace(doc.String(), core, core+`<stat name="int_ops_per_cycle" value="1e6"/>`, 1))
	dump := func(name, cycles, insts string) string {
		return write(name, "---------- Begin Simulation Statistics ----------\n"+
			"sim_seconds 0.001\n"+
			"system.cpu.numCycles "+cycles+"\n"+
			"system.cpu.committedInsts "+insts+"\n"+
			"---------- End Simulation Statistics   ----------\n")
	}
	plausible := dump("plausible.txt", "1200000", "900000")
	hot := dump("hot.txt", "1000", "1000000000")

	for _, tc := range []struct {
		name string
		args []string
		exit int
	}{
		{"mcpat", []string{"mcpat", "-infile", chipXML}, cliutil.ExitOK},
		{"mcpat runtime beyond TDP", []string{"mcpat", "-infile", hotXML}, cliutil.ExitInfeasible},
		{"mcpat-m5", []string{"mcpat-m5", "-infile", chipXML, "-stats", plausible}, cliutil.ExitOK},
		{"mcpat-m5 runtime beyond TDP", []string{"mcpat-m5", "-infile", chipXML, "-stats", hot}, cliutil.ExitInfeasible},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, tc.args[0]), tc.args[1:]...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			exit := 0
			var exitErr *exec.ExitError
			if errors.As(err, &exitErr) {
				exit = exitErr.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			rejected := tc.exit != cliutil.ExitOK
			if exit != tc.exit || strings.Contains(stdout.String(), "Die area") == rejected ||
				strings.Contains(stderr.String(), "exceeds 3 x TDP") != rejected {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", exit, tc.exit, stdout.String(), stderr.String())
			}
		})
	}
}
