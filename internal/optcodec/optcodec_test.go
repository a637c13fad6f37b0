package optcodec

import (
	"flag"
	"io"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestTableCoversOptions is the drift guard: every experiment.Options
// field must have exactly one table entry, so adding a field without
// deciding its public name fails here.
func TestTableCoversOptions(t *testing.T) {
	n := reflect.TypeOf(experiment.Options{}).NumField()
	if len(fields) != n {
		t.Fatalf("table has %d fields, experiment.Options has %d — add the new field to optcodec", len(fields), n)
	}
}

// TestQueryFlagParity is the satellite's bijection: every query parameter
// has a CLI flag and vice versa, with no duplicate names on either side.
func TestQueryFlagParity(t *testing.T) {
	queries := map[string]bool{}
	flags := map[string]bool{}
	for i := range fields {
		f := &fields[i]
		if f.Query == "" {
			t.Fatalf("field %d has no query name", i)
		}
		if queries[f.Query] {
			t.Fatalf("duplicate query name %q", f.Query)
		}
		queries[f.Query] = true
		if flags[f.FlagName()] {
			t.Fatalf("duplicate flag name %q", f.FlagName())
		}
		flags[f.FlagName()] = true
	}

	// Each side reaches the other through the same Field, so a registered
	// flag set contains exactly the flag forms of the query names.
	fs := flag.NewFlagSet("parity", flag.ContinueOnError)
	var opt experiment.Options
	Bind(fs, &opt)
	fs.VisitAll(func(fl *flag.Flag) {
		if !flags[fl.Name] {
			t.Errorf("flag -%s registered but not in the table", fl.Name)
		}
		delete(flags, fl.Name)
	})
	for name := range flags {
		t.Errorf("table flag -%s was not registered", name)
	}
}

// TestQueryAndFlagAgree sets each field once through FromQuery and once
// through the flag set and demands identical resulting Options.
func TestQueryAndFlagAgree(t *testing.T) {
	inputs := map[string]string{
		"intervals":      "64",
		"warmup":         "7",
		"seed":           "42",
		"interval-insts": "12345",
		"period":         "67",
		"max-leaves":     "31",
		"folds":          "5",
		"parallelism":    "3",
		"trace-workers":  "-1",
		"threads":        "true",
		"machine":        "pentium4",
	}
	if len(inputs) != len(fields) {
		t.Fatalf("test inputs cover %d fields, table has %d", len(inputs), len(fields))
	}

	q := url.Values{}
	for k, v := range inputs {
		q.Set(k, v)
	}
	fromQuery, err := FromQuery(experiment.Options{}, q, nil)
	if err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("agree", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var fromFlags experiment.Options
	Bind(fs, &fromFlags)
	var args []string
	for i := range fields {
		f := &fields[i]
		args = append(args, "-"+f.FlagName()+"="+inputs[f.Query])
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(fromQuery, fromFlags) {
		t.Fatalf("query and flag parsing diverge:\n query: %+v\n flags: %+v", fromQuery, fromFlags)
	}
	if fromQuery.Machine.Name != "pentium4" || !fromQuery.ThreadSeparated || fromQuery.TraceWorkers != -1 {
		t.Fatalf("parsed options wrong: %+v", fromQuery)
	}

	// Get must render what Set stored (flag default display contract).
	for i := range fields {
		f := &fields[i]
		got := f.Get(&fromQuery)
		var rt experiment.Options
		if err := f.Set(&rt, got); err != nil {
			t.Errorf("%s: Get output %q does not re-parse: %v", f.Query, got, err)
		}
	}
}

func TestFromQueryRejections(t *testing.T) {
	base := experiment.Options{}
	cases := []struct {
		name string
		q    url.Values
		want string
	}{
		{"unknown", url.Values{"intervalls": {"60"}}, "unknown parameter"},
		{"repeated", url.Values{"seed": {"1", "2"}}, "given 2 times"},
		{"not int", url.Values{"intervals": {"sixty"}}, "not an integer"},
		{"negative uint", url.Values{"seed": {"-1"}}, "not a non-negative integer"},
		{"bad bool", url.Values{"threads": {"maybe"}}, "not a bool"},
		{"bad machine", url.Values{"machine": {"vax"}}, "unknown machine"},
		{"negative max-leaves", url.Values{"max-leaves": {"-3"}}, "negative"},
	}
	for _, tc := range cases {
		_, err := FromQuery(base, tc.q, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Reserved names pass through untouched.
	if _, err := FromQuery(base, url.Values{"timeout": {"5s"}}, map[string]bool{"timeout": true}); err != nil {
		t.Errorf("reserved timeout rejected: %v", err)
	}
}

// TestBoolFlagForm: -threads with no value must work on the CLI (the
// historical flag.Bool behavior).
func TestBoolFlagForm(t *testing.T) {
	fs := flag.NewFlagSet("bool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var opt experiment.Options
	Bind(fs, &opt)
	if err := fs.Parse([]string{"-threads", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if !opt.ThreadSeparated || opt.Seed != 9 {
		t.Fatalf("bool-form parse wrong: %+v", opt)
	}
}
