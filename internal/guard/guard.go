// Package guard hardens the model evaluation pipeline. It defines the
// structured error taxonomy shared by every layer (configuration errors,
// infeasible designs, model-domain violations, and internal faults), each
// carrying a component path such as "core[2].ifu.btb", and its one wire
// form (WireError, filled by Classify); a Recover boundary
// that converts panics escaping the model internals into ErrInternal
// values so no caller-supplied configuration can crash a host process;
// and an output sanity pass (CheckReport) that verifies a synthesized
// chip's numbers are physical before they are handed to a caller.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
)

// The four error kinds of the evaluation pipeline. Use errors.Is against
// these sentinels to classify any error returned by the public API.
var (
	// ErrConfig marks a malformed or out-of-range caller configuration.
	ErrConfig = errors.New("invalid configuration")
	// ErrInfeasible marks a well-formed design the models cannot realize
	// (no circuit organization meets the constraints).
	ErrInfeasible = errors.New("infeasible design")
	// ErrModelDomain marks model outputs that left the physical domain
	// (NaN/Inf, negative power or area, inconsistent totals).
	ErrModelDomain = errors.New("model domain violation")
	// ErrInternal marks a fault inside the models themselves, including
	// recovered panics. These indicate a bug, not a bad input.
	ErrInternal = errors.New("internal model error")
)

// Error is a structured model error: a kind from the taxonomy above plus
// the path of the component being synthesized when it occurred.
type Error struct {
	Kind error  // one of ErrConfig/ErrInfeasible/ErrModelDomain/ErrInternal
	Path string // component path, e.g. "core[2].ifu.btb"; may be empty
	Err  error  // underlying cause; may be nil when Msg carries the detail
	Msg  string // human-readable detail when there is no underlying cause
}

func (e *Error) Error() string {
	var b strings.Builder
	if e.Kind != nil {
		b.WriteString(e.Kind.Error())
	}
	if e.Path != "" {
		if b.Len() > 0 {
			b.WriteString(" at ")
		}
		b.WriteString(e.Path)
	}
	detail := e.Msg
	if detail == "" && e.Err != nil {
		detail = e.Err.Error()
	}
	if detail != "" {
		if b.Len() > 0 {
			b.WriteString(": ")
		}
		b.WriteString(detail)
	}
	return b.String()
}

// Unwrap exposes both the kind sentinel and the underlying cause, so
// errors.Is works against either.
func (e *Error) Unwrap() []error {
	var out []error
	if e.Kind != nil {
		out = append(out, e.Kind)
	}
	if e.Err != nil {
		out = append(out, e.Err)
	}
	return out
}

// Configf returns an ErrConfig at the given component path.
func Configf(path, format string, args ...any) error {
	return &Error{Kind: ErrConfig, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Infeasiblef returns an ErrInfeasible at the given component path.
func Infeasiblef(path, format string, args ...any) error {
	return &Error{Kind: ErrInfeasible, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Domainf returns an ErrModelDomain at the given component path.
func Domainf(path, format string, args ...any) error {
	return &Error{Kind: ErrModelDomain, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Internalf returns an ErrInternal at the given component path.
func Internalf(path, format string, args ...any) error {
	return &Error{Kind: ErrInternal, Path: path, Msg: fmt.Sprintf(format, args...)}
}

// Wrap attaches a kind and component path to an underlying error. A nil
// err returns nil. If err is already a guard Error it is left as-is
// except that a missing path is filled in, so the innermost (most
// specific) classification wins.
func Wrap(kind error, path string, err error) error {
	if err == nil {
		return nil
	}
	var ge *Error
	if errors.As(err, &ge) {
		return At(err, path)
	}
	return &Error{Kind: kind, Path: path, Err: err}
}

// At prefixes a component-path segment onto an error, building paths like
// "core[2].ifu.btb" as errors propagate up the component tree. Non-guard
// errors are wrapped without assigning a kind.
func At(err error, segment string) error {
	if err == nil {
		return nil
	}
	if segment == "" {
		return err
	}
	var ge *Error
	if errors.As(err, &ge) {
		cp := *ge
		switch {
		case cp.Path == "":
			cp.Path = segment
		default:
			cp.Path = segment + "." + cp.Path
		}
		return &cp
	}
	return &Error{Path: segment, Err: err}
}

// PathOf returns the component path carried by err, or "".
func PathOf(err error) string {
	var ge *Error
	if errors.As(err, &ge) {
		return ge.Path
	}
	var we *WireError
	if errors.As(err, &we) {
		return we.Path
	}
	return ""
}

// The kind names of the wire form: one per guard kind, plus the two
// context ends.
const (
	KindConfig      = "config"
	KindInfeasible  = "infeasible"
	KindModelDomain = "model_domain"
	KindInternal    = "internal"
	KindTimeout     = "timeout"
	KindCanceled    = "canceled"
)

// WireError is the wire form of a classified error, {kind, path,
// message}: the detail of every mcpatd error body, shard error frame
// and shard failure. Decoded from a remote, it stands in for the error
// it reports: errors.Is matches the guard kind its Kind names, PathOf
// returns Path, and Error returns Message, the original headline.
type WireError struct {
	// Kind is one of the Kind* names, or a transport kind of the
	// service ("bad_request", "overloaded", ...).
	Kind string `json:"kind"`
	// Path is the component path, e.g. "core[2].ifu.btb"; may be empty.
	Path string `json:"path,omitempty"`
	// Message is the first line of the reported error.
	Message string `json:"message"`
}

func (e *WireError) Error() string { return e.Message }

// Is reports whether target is the guard sentinel Kind names. A remote
// "timeout" or "canceled" matches no context error: no context of this
// process ended.
func (e *WireError) Is(target error) bool {
	switch target {
	case ErrConfig:
		return e.Kind == KindConfig
	case ErrInfeasible:
		return e.Kind == KindInfeasible
	case ErrModelDomain:
		return e.Kind == KindModelDomain
	case ErrInternal:
		return e.Kind == KindInternal
	}
	return false
}

// Classify reports err in wire form. Its kind is the guard kind err
// carries, KindTimeout for a deadline, KindCanceled for a cancellation,
// and KindInternal otherwise, except that a WireError anywhere in the
// chain lends its kind and path. Message is err's first line: a
// recovered panic's stack belongs in logs, not replies.
func Classify(err error) *WireError {
	out := &WireError{Kind: KindInternal, Path: PathOf(err), Message: FirstLine(err.Error())}
	var we *WireError
	switch {
	case errors.As(err, &we):
		out.Kind, out.Path = we.Kind, we.Path
	case errors.Is(err, ErrConfig):
		out.Kind = KindConfig
	case errors.Is(err, ErrInfeasible):
		out.Kind = KindInfeasible
	case errors.Is(err, ErrModelDomain):
		out.Kind = KindModelDomain
	case errors.Is(err, context.DeadlineExceeded):
		out.Kind = KindTimeout
	case errors.Is(err, context.Canceled):
		out.Kind = KindCanceled
	}
	return out
}

// FirstLine trims a message to its first line.
func FirstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Recover is the panic-containment boundary of the public API. Deferred
// at the top of an exported constructor or evaluation entry point, it
// converts an in-flight panic into an ErrInternal assigned through errp:
//
//	func New(cfg Config) (p *Processor, err error) {
//	    defer guard.Recover(&err, "mcpat.New")
//	    ...
//	}
//
// The recovered value and a trimmed stack trace are preserved in the
// error message so the fault stays diagnosable.
func Recover(errp *error, path string) {
	r := recover()
	if r == nil {
		return
	}
	err := &Error{
		Kind: ErrInternal,
		Path: path,
		Msg:  fmt.Sprintf("recovered panic: %v\n%s", r, trimStack(debug.Stack())),
	}
	if errp != nil {
		*errp = err
	}
}

// trimStack drops the goroutine header and the frames of the panic/
// recover machinery itself, keeping the trace focused on model code.
func trimStack(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	// Line 0 is "goroutine N [running]:". Frames follow as pairs of a
	// function line and an indented location line; the leading frames are
	// debug.Stack, Recover, and the runtime panic machinery.
	start := 0
	if len(lines) > 0 && strings.HasPrefix(lines[0], "goroutine ") {
		start = 1
	}
	for start+1 < len(lines) {
		l := lines[start]
		if strings.Contains(l, "debug.Stack") ||
			strings.Contains(l, "guard.Recover") ||
			strings.HasPrefix(l, "panic(") {
			start += 2
			continue
		}
		break
	}
	const maxLines = 16
	if start >= len(lines) {
		start = 0
	}
	out := lines[start:]
	if len(out) > maxLines {
		out = out[:maxLines]
	}
	return strings.TrimRight(strings.Join(out, "\n"), "\n")
}
