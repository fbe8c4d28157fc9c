// Package cliutil centralizes the exit-code convention of the cmd/*
// binaries. Every tool maps the guard error taxonomy onto the same
// codes, so scripts can distinguish caller mistakes from physical
// infeasibility from framework bugs without parsing stderr:
//
//	0  success
//	1  internal fault (contained panic, I/O error, anything unclassified)
//	2  configuration / usage error (guard.ErrConfig, bad flags)
//	3  infeasible design or model-domain violation
package cliutil

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"mcpat/internal/guard"
)

// The shared exit codes.
const (
	ExitOK         = 0
	ExitInternal   = 1
	ExitConfig     = 2
	ExitInfeasible = 3
)

// ExitCode maps an error onto the shared convention via the guard
// taxonomy.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, guard.ErrConfig):
		return ExitConfig
	case errors.Is(err, guard.ErrInfeasible), errors.Is(err, guard.ErrModelDomain):
		return ExitInfeasible
	}
	return ExitInternal
}

// Fatal prints "tool: message" to stderr - guard errors already lead
// with their kind and component path - and exits with the mapped code.
// Multi-line details (recovered panic stacks) are trimmed to their
// headline.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, guard.FirstLine(err.Error()))
	os.Exit(ExitCode(err))
}

// Usagef prints a usage complaint and exits with ExitConfig - flag
// misuse is a configuration error under the shared convention.
func Usagef(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(ExitConfig)
}

// SplitCSV splits a comma-separated flag into its non-empty parts.
func SplitCSV(csv string) []string {
	var out []string
	for _, part := range strings.Split(csv, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
