// export/import: the CLI face of the external-profile wire format.
//
// `fuzzyphase export <workload> <file>` runs the native front half
// (simulate, profile, build EIPVs) and writes the steady-state set as a
// profilefmt profile; `fuzzyphase import <file>` goes the other way —
// decode (or convert from pprof / perf script), validate, and either
// re-encode (-convert) or run the workload-agnostic analysis and print
// the JSON report, the same bytes POST /v1/analyze returns.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	fuzzyphase "repro"
	"repro/internal/experiment"
	"repro/internal/profilefmt"
	"repro/internal/workload"
)

// runExport analyzes the workload natively and writes its steady-state
// EIPV set as an external profile. Re-importing the file (or POSTing it
// to /v1/analyze) reproduces the native analysis bit for bit.
func runExport(name, path, format string, opt fuzzyphase.Options) error {
	res, err := fuzzyphase.Analyze(name, opt)
	if err != nil {
		return err
	}
	ii := opt.IntervalInsts
	if ii == 0 {
		ii = workload.IntervalInsts
	}
	p := profilefmt.FromSet(res.Set, opt.Machine.Name, ii)
	if err := writeProfile(path, format, p); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows (%d distinct EIPs) of %s to %s (%s)\n",
		len(p.Rows), res.UniqueEIPs, name, path, format)
	return nil
}

// writeProfile encodes p to path in the requested encoding.
func writeProfile(path, format string, p *profilefmt.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		bw := bufio.NewWriter(f)
		if err := profilefmt.EncodeJSON(bw, p); err != nil {
			f.Close()
			return err
		}
		err = bw.Flush()
	case "binary":
		_, err = f.Write(profilefmt.EncodeBinary(p))
	default:
		f.Close()
		return fmt.Errorf("unknown -format %q (json, binary)", format)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runImport loads an external profile (decoding or converting per -from),
// then either writes it back out (-convert) or analyzes it and prints the
// JSON report.
func runImport(path, from, convert, format string, defaultCPI float64, opt fuzzyphase.Options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	lim := profilefmt.DefaultLimits
	var p *profilefmt.Profile
	switch from {
	case "auto":
		p, err = loadAuto(f, lim, opt.IntervalInsts, defaultCPI)
	case "eipv":
		p, _, err = profilefmt.Decode(f, lim)
	case "pprof":
		p, err = profilefmt.FromPprof(f, lim, defaultCPI)
	case "perf":
		p, err = profilefmt.FromPerfScript(f, lim, opt.IntervalInsts, defaultCPI)
	default:
		return fmt.Errorf("unknown -from %q (auto, eipv, pprof, perf)", from)
	}
	if err != nil {
		return err
	}

	if convert != "" {
		if err := writeProfile(convert, format, p); err != nil {
			return err
		}
		fmt.Printf("converted %s -> %s (%s, %d rows, %d entries)\n",
			path, convert, format, len(p.Rows), p.NNZ())
		return nil
	}

	// Same content-hash cache key and analysis path as POST /v1/analyze.
	res, err := experiment.AnalyzeProfile(profilefmt.ContentKey(p), p, opt)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(experiment.NewReport(res), "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

// loadAuto sniffs the source format: the profilefmt encodings by their
// magics, gzip (pprof's usual dress) by its, raw pprof protobuf by a
// leading field tag, and perf-script text as the fallback.
func loadAuto(r io.Reader, lim profilefmt.Limits, intervalInsts uint64, defaultCPI float64) (*profilefmt.Profile, error) {
	br := bufio.NewReader(r)
	prefix, err := br.Peek(64)
	if err != nil && len(prefix) == 0 {
		return nil, fmt.Errorf("empty profile input")
	}
	if kind := profilefmt.Sniff(prefix); kind != profilefmt.KindUnknown {
		p, _, err := profilefmt.Decode(br, lim)
		return p, err
	}
	if len(prefix) >= 2 && prefix[0] == 0x1f && prefix[1] == 0x8b {
		return profilefmt.FromPprof(br, lim, defaultCPI)
	}
	// Raw pprof protobuf starts with a low field tag byte; perf script is
	// printable text.
	if len(prefix) > 0 && prefix[0] < 0x20 && !bytes.ContainsAny(prefix[:1], "\t\n\r") {
		return profilefmt.FromPprof(br, lim, defaultCPI)
	}
	return profilefmt.FromPerfScript(br, lim, intervalInsts, defaultCPI)
}
