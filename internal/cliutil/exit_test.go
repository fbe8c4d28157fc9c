package cliutil

import (
	"errors"
	"fmt"
	"testing"

	"mcpat/internal/guard"
)

func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{guard.Configf("chip", "bad core count"), ExitConfig},
		{guard.Infeasiblef("L2", "no organization meets clock"), ExitInfeasible},
		{guard.Domainf("chip", "negative power"), ExitInfeasible},
		{guard.Internalf("core[0]", "recovered panic"), ExitInternal},
		{errors.New("plain I/O error"), ExitInternal},
		// Wrapping must not change the classification.
		{fmt.Errorf("outer: %w", guard.Configf("chip", "bad")), ExitConfig},
		// Nor must decoding a remote error.
		{fmt.Errorf("remote: %w", &guard.WireError{Kind: guard.KindConfig}), ExitConfig},
		{&guard.WireError{Kind: guard.KindModelDomain}, ExitInfeasible},
		{&guard.WireError{Kind: guard.KindTimeout}, ExitInternal},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
