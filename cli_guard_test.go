package mcpat_test

import (
	"bytes"
	"errors"
	"fmt"
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
// input of the same chip still prints. mcpat prints the runtime power
// /v1/evaluate returns, net of power-gating savings, rejects a zero flit
// width as a configuration error at the fabric, and mcpat-trace treats a
// bad -governor as a usage error. The synthesis caches live only in
// memory, so -cache-dir is an unknown flag: the flag package's usage
// exit (2), not a silently ignored setting.
func TestCLIOutputGuard(t *testing.T) {
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir, "./cmd/mcpat", "./cmd/mcpat-m5", "./cmd/mcpat-trace").CombinedOutput(); err != nil {
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
	gated := strings.Replace(doc.String(), core, core+`<param name="power_gating" value="1"/>`+
		`<stat name="pipeline_duty" value="0.4"/><stat name="int_ops_per_cycle" value="0.3"/>`+
		`<stat name="icache_access_per_cycle" value="0.5"/><stat name="decode_per_cycle" value="0.4"/>`, 1)
	gatedXML := write("gated.xml", gated)
	const flit = `<param name="flit_bits" value="128"></param>`
	if !strings.Contains(doc.String(), flit) {
		t.Fatalf("template has no %s", flit)
	}
	flit0XML := write("flit0.xml", strings.Replace(doc.String(), flit, `<param name="flit_bits" value="0"></param>`, 1))
	gcfg, gstats, err := mcpat.LoadXML(strings.NewReader(gated))
	if err != nil {
		t.Fatal(err)
	}
	gp, err := mcpat.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	grep := gp.Report(gstats)
	if grep.LeakSaved <= 0 {
		t.Fatal("power-gated template saves no leakage")
	}
	gatedLine := fmt.Sprintf("Runtime power= %.3f W (dynamic %.3f W + leakage %.3f W)",
		grep.Runtime(), grep.RuntimeDynamic, grep.Leakage()-grep.LeakSaved)
	dump := func(name, cycles, insts string) string {
		return write(name, "---------- Begin Simulation Statistics ----------\n"+
			"sim_seconds 0.001\n"+
			"system.cpu.numCycles "+cycles+"\n"+
			"system.cpu.committedInsts "+insts+"\n"+
			"---------- End Simulation Statistics   ----------\n")
	}
	plausible := dump("plausible.txt", "1200000", "900000")
	hot := dump("hot.txt", "1000", "1000000000")

	const guardFinding = "exceeds 3 x TDP"
	for _, tc := range []struct {
		name string
		args []string
		exit int
		// stdout and stderr must each contain their string, or be
		// empty when it is "".
		stdout, stderr string
	}{
		{"mcpat", []string{"mcpat", "-infile", chipXML}, cliutil.ExitOK, "Die area", ""},
		{"mcpat runtime beyond TDP", []string{"mcpat", "-infile", hotXML}, cliutil.ExitInfeasible, "", guardFinding},
		{"mcpat-m5", []string{"mcpat-m5", "-infile", chipXML, "-stats", plausible}, cliutil.ExitOK, "Die area", ""},
		{"mcpat-m5 runtime beyond TDP", []string{"mcpat-m5", "-infile", chipXML, "-stats", hot}, cliutil.ExitInfeasible, "", guardFinding},
		{"mcpat power-gated runtime", []string{"mcpat", "-infile", gatedXML}, cliutil.ExitOK, gatedLine, ""},
		{"mcpat zero flit width", []string{"mcpat", "-infile", flit0XML}, cliutil.ExitConfig, "",
			"invalid configuration at Niagara(T1).noc: "},
		{"mcpat-trace bad governor", []string{"mcpat-trace", "-config", "examples/gem5-trace/config.json",
			"-stats", "examples/gem5-trace/stats.txt", "-thermal", "-rtheta", "0.8", "-governor", "bogus"},
			cliutil.ExitConfig, "", "unknown governor"},
		{"mcpat -cache-dir", []string{"mcpat", "-cache-dir", dir, "-infile", chipXML}, cliutil.ExitConfig, "",
			"flag provided but not defined: -cache-dir"},
		{"mcpat-trace -cache-dir", []string{"mcpat-trace", "-cache-dir", dir, "-config", "examples/gem5-trace/config.json",
			"-stats", "examples/gem5-trace/stats.txt"}, cliutil.ExitConfig, "", "flag provided but not defined: -cache-dir"},
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
			if exit != tc.exit || !holds(stdout.String(), tc.stdout) || !holds(stderr.String(), tc.stderr) {
				t.Fatalf("exit %d, want %d with stdout %q and stderr %q\nstdout: %s\nstderr: %s",
					exit, tc.exit, tc.stdout, tc.stderr, stdout.String(), stderr.String())
			}
		})
	}
}

// holds reports whether out contains want, or is empty when want is "".
func holds(out, want string) bool {
	if want == "" {
		return out == ""
	}
	return strings.Contains(out, want)
}
