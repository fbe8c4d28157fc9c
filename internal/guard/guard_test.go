package guard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"mcpat/internal/power"
)

func TestErrorKindsClassify(t *testing.T) {
	cases := []struct {
		err  error
		kind error
	}{
		{Configf("core[2].ifu.btb", "bad entries %d", -1), ErrConfig},
		{Infeasiblef("l2", "no organization"), ErrInfeasible},
		{Domainf("chip", "NaN area"), ErrModelDomain},
		{Internalf("chip", "boom"), ErrInternal},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.kind) {
			t.Errorf("%v should match kind %v", c.err, c.kind)
		}
		for _, other := range []error{ErrConfig, ErrInfeasible, ErrModelDomain, ErrInternal} {
			if other != c.kind && errors.Is(c.err, other) {
				t.Errorf("%v should not match kind %v", c.err, other)
			}
		}
	}
}

func TestErrorMessageCarriesPathAndDetail(t *testing.T) {
	err := Configf("core[2].ifu.btb", "bad entries %d", -1)
	msg := err.Error()
	for _, want := range []string{"invalid configuration", "core[2].ifu.btb", "bad entries -1"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestAtPrependsPathSegments(t *testing.T) {
	err := Configf("btb", "bad")
	err = At(err, "ifu")
	err = At(err, "core[2]")
	if got := PathOf(err); got != "core[2].ifu.btb" {
		t.Fatalf("path = %q, want core[2].ifu.btb", got)
	}
	if !errors.Is(err, ErrConfig) {
		t.Fatal("kind lost while prefixing path")
	}
	if At(nil, "x") != nil {
		t.Fatal("At(nil) must stay nil")
	}
}

func TestWrapPreservesInnerClassification(t *testing.T) {
	inner := Infeasiblef("l2", "no organization")
	wrapped := Wrap(ErrConfig, "chip", inner)
	if !errors.Is(wrapped, ErrInfeasible) {
		t.Fatal("inner kind must win")
	}
	if errors.Is(wrapped, ErrConfig) {
		t.Fatal("outer kind must not override the inner one")
	}
	if got := PathOf(wrapped); got != "chip.l2" {
		t.Fatalf("path = %q, want chip.l2", got)
	}

	plain := Wrap(ErrConfig, "chip", fmt.Errorf("strconv: bad"))
	if !errors.Is(plain, ErrConfig) {
		t.Fatal("plain errors take the supplied kind")
	}
	if Wrap(ErrConfig, "chip", nil) != nil {
		t.Fatal("Wrap(nil) must stay nil")
	}
}

func TestRecoverConvertsPanicToErrInternal(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err, "mcpat.New")
		panic("index out of range [3] with length 2")
	}
	err := f()
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("recovered panic should be ErrInternal, got %v", err)
	}
	if !strings.Contains(err.Error(), "index out of range") {
		t.Errorf("recovered value lost: %v", err)
	}
	if PathOf(err) != "mcpat.New" {
		t.Errorf("path = %q, want mcpat.New", PathOf(err))
	}
}

func TestRecoverNoPanicKeepsError(t *testing.T) {
	f := func() (err error) {
		defer Recover(&err, "x")
		return errors.New("original")
	}
	if err := f(); err == nil || err.Error() != "original" {
		t.Fatalf("Recover must not disturb a normal return, got %v", err)
	}
}

func TestFirstLine(t *testing.T) {
	if got := FirstLine("head\ntail"); got != "head" {
		t.Errorf("FirstLine = %q", got)
	}
	if got := FirstLine("single"); got != "single" {
		t.Errorf("FirstLine = %q", got)
	}
}

// TestWireErrorStandsInForItsError pins the decoded form: classifying
// a WireError, however wrapped, gives back its kind and path with the
// wrapper's headline, and it matches exactly the guard kind it names.
func TestWireErrorStandsInForItsError(t *testing.T) {
	sentinels := []error{ErrConfig, ErrInfeasible, ErrModelDomain, ErrInternal,
		context.Canceled, context.DeadlineExceeded}
	cases := []struct {
		err   error
		match error // the one sentinel the decoded form matches, or nil
	}{
		{Configf("dse.shard", "unknown fabric"), ErrConfig},
		{Infeasiblef("chip.L2", "no organization"), ErrInfeasible},
		{Domainf("chip", "NaN area"), ErrModelDomain},
		{Internalf("dse[x]", "recovered panic: boom\nstack"), ErrInternal},
		{At(context.DeadlineExceeded, "dse[x]"), nil},
		{context.Canceled, nil},
	}
	for _, c := range cases {
		we := Classify(c.err)
		if we.Message != FirstLine(c.err.Error()) || we.Error() != we.Message {
			t.Errorf("%v: message %q, Error() %q", c.err, we.Message, we.Error())
		}
		if PathOf(we) != PathOf(c.err) {
			t.Errorf("%v: PathOf(decoded) = %q, want %q", c.err, PathOf(we), PathOf(c.err))
		}
		for _, s := range sentinels {
			if got := errors.Is(we, s); got != (s == c.match) {
				t.Errorf("kind %q: errors.Is(decoded, %v) = %v", we.Kind, s, got)
			}
		}
		wrapped := fmt.Errorf("giving up: %w", we)
		if got := Classify(wrapped); *got != (WireError{we.Kind, we.Path, "giving up: " + we.Message}) {
			t.Errorf("wrapped %q reclassified as %+v", we.Kind, *got)
		}
	}
}

func okTree() *power.Item {
	return &power.Item{Name: "chip", Area: 3, PeakDynamic: 13, SubLeak: 1.5, GateLeak: 0.75,
		Children: []*power.Item{
			{Name: "cores", Area: 2, PeakDynamic: 10, SubLeak: 1, GateLeak: 0.5},
			{Name: "l2", Area: 1, PeakDynamic: 3, SubLeak: 0.5, GateLeak: 0.25},
		}}
}

func TestCheckReportAcceptsHealthyTree(t *testing.T) {
	if ds := CheckReport(okTree(), nil); len(ds) != 0 {
		t.Fatalf("healthy tree flagged: %v", ds)
	}
}

func TestCheckReportFlagsNaNInfNegative(t *testing.T) {
	tree := okTree()
	tree.Children[0].Area = math.NaN()
	tree.Children[1].PeakDynamic = math.Inf(1)
	tree.Children[1].SubLeak = -1
	ds := CheckReport(tree, nil)
	if len(ds) < 3 {
		t.Fatalf("want >=3 diagnostics, got %v", ds)
	}
	var sawNaN, sawInf, sawNeg bool
	for _, d := range ds {
		switch d.Msg {
		case "NaN":
			sawNaN = true
		case "infinite":
			sawInf = true
		case "negative":
			sawNeg = true
		}
	}
	if !sawNaN || !sawInf || !sawNeg {
		t.Fatalf("missing categories in %v", ds)
	}
	if err := ds.Err(); err == nil || !errors.Is(err, ErrModelDomain) {
		t.Fatalf("diagnostics must convert to ErrModelDomain, got %v", err)
	}
}

func TestCheckReportFlagsChildrenExceedingParent(t *testing.T) {
	tree := okTree()
	tree.PeakDynamic = 1 // children sum to 13
	ds := CheckReport(tree, nil)
	found := false
	for _, d := range ds {
		if d.Field == "PeakDynamic" && strings.Contains(d.Msg, "children sum") {
			found = true
		}
	}
	if !found {
		t.Fatalf("children-exceed-parent not flagged: %v", ds)
	}
	// The legitimate direction - parent bigger than children (self
	// contributions, top-level overheads) - must pass.
	tree2 := okTree()
	tree2.Area *= 1.12
	if ds := CheckReport(tree2, nil); len(ds) != 0 {
		t.Fatalf("parent>children wrongly flagged: %v", ds)
	}
}

func TestCheckReportFlagsRuntimeBeyondTDP(t *testing.T) {
	tree := okTree()
	tree.RuntimeDynamic = 1000 // TDP is ~15.25 W
	ds := CheckReport(tree, nil)
	found := false
	for _, d := range ds {
		if d.Field == "Runtime" {
			found = true
		}
	}
	if !found {
		t.Fatalf("runtime >> TDP not flagged: %v", ds)
	}
	// A generous multiplier admits it.
	if ds := CheckReport(tree, &CheckOptions{RuntimeTDPMult: 1000}); len(ds) != 0 {
		t.Fatalf("custom multiplier not honored: %v", ds)
	}
}

func TestCheckReportFlagsExcessLeakSaved(t *testing.T) {
	tree := okTree()
	tree.Children[0].LeakSaved = 5 // leakage there is 1.5 W
	ds := CheckReport(tree, nil)
	found := false
	for _, d := range ds {
		if d.Field == "LeakSaved" && strings.Contains(d.Msg, "exceed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("excess LeakSaved not flagged: %v", ds)
	}
}

func TestCheckReportNil(t *testing.T) {
	if ds := CheckReport(nil, nil); len(ds) != 1 {
		t.Fatalf("nil report must yield one diagnostic, got %v", ds)
	}
}
