// Package optcodec is the single source of truth for the public Options
// surface: one canonical field table — name, kind, default, validating
// setter — consumed by both transports that accept user-specified
// analysis options, the CLI's flag set (cmd/fuzzyphase) and the HTTP
// query parameters (internal/serve). Before this package the two
// transports each hand-rolled their own parsing and silently drifted
// (the CLI had no -warmup or -folds; the server had no way to know a
// flag existed); now a field added to the table appears in both, and the
// parity test locks the bijection.
package optcodec

import (
	"flag"
	"fmt"
	"net/url"
	"sort"
	"strconv"

	"repro/internal/cpu"
	"repro/internal/experiment"
)

// Error is a parse/validation failure for one named option; transports
// wrap it into their own error shape (the CLI prints it, the server maps
// it to a 400).
type Error struct {
	Name string // canonical option name
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("parameter %s: %s", e.Name, e.Msg) }

func errf(name, format string, args ...any) error {
	return &Error{Name: name, Msg: fmt.Sprintf(format, args...)}
}

// Field is one Options knob in the canonical table.
type Field struct {
	// Query is the canonical name: the HTTP query parameter, and (unless
	// Flag overrides it) the CLI flag.
	Query string
	// Flag is the CLI flag name when it historically differs from Query
	// ("" means same as Query). -parallel predates the table; renaming it
	// would break every Makefile and script, so the table carries the
	// alias instead.
	Flag string
	// Bool marks fields that parse as booleans (their CLI flag accepts
	// the valueless -name form).
	Bool bool
	// Help is the flag usage string.
	Help string
	// Set parses raw into o, validating; errors are *Error.
	Set func(o *experiment.Options, raw string) error
	// Get renders o's current value (flag default display, parity tests).
	Get func(o *experiment.Options) string
}

// FlagName returns the CLI flag name (Flag when set, else Query).
func (f *Field) FlagName() string {
	if f.Flag != "" {
		return f.Flag
	}
	return f.Query
}

// fields is the canonical table. Exactly one entry per experiment.Options
// field — the parity test asserts the count against the struct via
// reflection, so adding an Options field without a table entry fails CI.
var fields = []Field{
	{
		Query: "intervals",
		Help:  "EIPV intervals to simulate (0 = default)",
		Set: func(o *experiment.Options, raw string) (err error) {
			o.Intervals, err = parseInt("intervals", raw)
			return
		},
		Get: func(o *experiment.Options) string { return strconv.Itoa(o.Intervals) },
	},
	{
		Query: "warmup",
		Help:  "leading intervals to discard (0 = default, negative = none)",
		Set: func(o *experiment.Options, raw string) (err error) {
			o.Warmup, err = parseInt("warmup", raw)
			return
		},
		Get: func(o *experiment.Options) string { return strconv.Itoa(o.Warmup) },
	},
	{
		Query: "seed",
		Help:  "random seed",
		Set: func(o *experiment.Options, raw string) (err error) {
			o.Seed, err = parseUint("seed", raw)
			return
		},
		Get: func(o *experiment.Options) string { return strconv.FormatUint(o.Seed, 10) },
	},
	{
		Query: "interval-insts",
		Help:  "EIPV interval length in instructions (0 = paper default)",
		Set: func(o *experiment.Options, raw string) (err error) {
			o.IntervalInsts, err = parseUint("interval-insts", raw)
			return
		},
		Get: func(o *experiment.Options) string { return strconv.FormatUint(o.IntervalInsts, 10) },
	},
	{
		Query: "period",
		Help:  "profiler sampling period override in instructions (0 = workload preference)",
		Set: func(o *experiment.Options, raw string) (err error) {
			o.PeriodOverride, err = parseUint("period", raw)
			return
		},
		Get: func(o *experiment.Options) string { return strconv.FormatUint(o.PeriodOverride, 10) },
	},
	{
		Query: "max-leaves",
		Help:  "regression-tree leaf cap (0 = paper's 50)",
		Set: func(o *experiment.Options, raw string) (err error) {
			o.MaxLeaves, err = parseInt("max-leaves", raw)
			if err == nil && o.MaxLeaves < 0 {
				err = errf("max-leaves", "%d is negative", o.MaxLeaves)
			}
			return
		},
		Get: func(o *experiment.Options) string { return strconv.Itoa(o.MaxLeaves) },
	},
	{
		Query: "folds",
		Help:  "cross-validation folds (0 = paper's 10)",
		Set: func(o *experiment.Options, raw string) (err error) {
			o.Folds, err = parseInt("folds", raw)
			return
		},
		Get: func(o *experiment.Options) string { return strconv.Itoa(o.Folds) },
	},
	{
		Query: "parallelism",
		Flag:  "parallel",
		Help:  "worker goroutines (0 = one per CPU; output identical at any N)",
		Set: func(o *experiment.Options, raw string) (err error) {
			o.Parallelism, err = parseInt("parallelism", raw)
			return
		},
		Get: func(o *experiment.Options) string { return strconv.Itoa(o.Parallelism) },
	},
	{
		Query: "threads",
		Bool:  true,
		Help:  "build thread-separated EIPVs",
		Set: func(o *experiment.Options, raw string) error {
			v, err := strconv.ParseBool(raw)
			if err != nil {
				return errf("threads", "%q is not a bool", raw)
			}
			o.ThreadSeparated = v
			return nil
		},
		Get: func(o *experiment.Options) string { return strconv.FormatBool(o.ThreadSeparated) },
	},
	{
		Query: "machine",
		Help:  "machine model: itanium2|pentium4|xeon",
		Set: func(o *experiment.Options, raw string) error {
			cfg, err := cpu.ConfigByName(raw)
			if err != nil {
				return errf("machine", "unknown machine %q (itanium2, pentium4, xeon)", raw)
			}
			o.Machine = cfg
			return nil
		},
		Get: func(o *experiment.Options) string {
			if o.Machine.Name == "" {
				return "itanium2"
			}
			return o.Machine.Name
		},
	},
}

// Fields returns the canonical table (shared backing array; callers must
// not mutate).
func Fields() []Field { return fields }

// QueryNames returns the canonical query-parameter names, sorted.
func QueryNames() []string {
	names := make([]string, len(fields))
	for i := range fields {
		names[i] = fields[i].Query
	}
	sort.Strings(names)
	return names
}

// Bind registers one CLI flag per table field on fs, each writing through
// to opt when parsed. opt should be pre-seeded with the command's
// defaults (they become the flags' displayed defaults).
func Bind(fs *flag.FlagSet, opt *experiment.Options) {
	for i := range fields {
		f := &fields[i]
		fs.Var(&fieldValue{f: f, opt: opt}, f.FlagName(), f.Help)
	}
}

// fieldValue adapts a Field to flag.Value.
type fieldValue struct {
	f   *Field
	opt *experiment.Options
}

func (v *fieldValue) Set(raw string) error { return v.f.Set(v.opt, raw) }
func (v *fieldValue) String() string {
	if v == nil || v.f == nil {
		return ""
	}
	return v.f.Get(v.opt)
}
func (v *fieldValue) IsBoolFlag() bool { return v.f.Bool }

// FromQuery overlays query parameters onto base. Every parameter is
// optional; an unparseable value, a repeated parameter or an unknown name
// is an error, so a typo (?intervalls=60) can never silently run the
// full-length default pipeline. Names in reserved are accepted and
// skipped (the server handles them elsewhere, e.g. ?timeout=).
func FromQuery(base experiment.Options, q url.Values, reserved map[string]bool) (experiment.Options, error) {
	opt := base
	for name, vals := range q {
		if len(vals) != 1 {
			return opt, errf(name, "given %d times", len(vals))
		}
		if reserved[name] {
			continue
		}
		f := lookup(name)
		if f == nil {
			return opt, errf(name, "unknown parameter")
		}
		if err := f.Set(&opt, vals[0]); err != nil {
			return opt, err
		}
	}
	return opt, nil
}

func lookup(query string) *Field {
	for i := range fields {
		if fields[i].Query == query {
			return &fields[i]
		}
	}
	return nil
}

func parseInt(name, val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil {
		return 0, errf(name, "%q is not an integer", val)
	}
	return n, nil
}

func parseUint(name, val string) (uint64, error) {
	n, err := strconv.ParseUint(val, 10, 64)
	if err != nil {
		return 0, errf(name, "%q is not a non-negative integer", val)
	}
	return n, nil
}
