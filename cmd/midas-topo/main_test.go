package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the midas-topo binary built once for the whole package, so the
// tests drive the real flag surface and exit codes.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "midas-topo-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "midas-topo")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building midas-topo: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes midas-topo with args and returns its stdout, stderr and
// exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("midas-topo %q: %v", args, err)
	}
	return o.String(), e.String(), code
}

// TestBuildsEveryVenue builds each supported AP count in both modes and
// checks the header names the requested mode and AP count, so a
// deployment that fails its own placement rules (exit 1) or a mode that
// is silently swapped fails here.
func TestBuildsEveryVenue(t *testing.T) {
	for _, aps := range []string{"1", "3", "8"} {
		for _, mode := range []string{"das", "cas"} {
			t.Run(aps+"/"+mode, func(t *testing.T) {
				out, errOut, code := run(t, "-aps", aps, "-mode", mode, "-seed", "3")
				if code != 0 {
					t.Fatalf("exit %d, stderr %q", code, errOut)
				}
				want := fmt.Sprintf("mode=%s APs=%s ", strings.ToUpper(mode), aps)
				if !strings.HasPrefix(out, want) {
					t.Fatalf("output starts %q, want prefix %q", firstLine(out), want)
				}
				if !strings.Contains(out, "AP0 at ") || !strings.Contains(out, "antenna 0 at ") {
					t.Errorf("output lists no AP or antenna:\n%s", out)
				}
			})
		}
	}
}

// TestRendersMap checks -map draws a 72×28 grid holding every glyph.
func TestRendersMap(t *testing.T) {
	out, errOut, code := run(t, "-aps", "3", "-map")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	_, grid, ok := strings.Cut(out, "(A=AP, t=antenna, c=client):\n")
	if !ok {
		t.Fatalf("no map header in output:\n%s", out)
	}
	rows := strings.Split(strings.TrimSuffix(grid, "\n"), "\n")
	if len(rows) != 28 {
		t.Fatalf("map has %d rows, want 28", len(rows))
	}
	for i, r := range rows {
		if len(r) != 72 {
			t.Fatalf("map row %d has %d columns, want 72", i, len(r))
		}
	}
	for _, glyph := range []string{"A", "t", "c"} {
		if !strings.Contains(grid, glyph) {
			t.Errorf("map draws no %q", glyph)
		}
	}
}

// TestRefusesBadFlags pins that an unknown mode or AP count is an
// error, never a silently substituted deployment.
func TestRefusesBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		code     int
		mentions string
	}{
		{[]string{"-mode", "foo"}, 2, "das|cas"},
		{[]string{"-mode", "CAS"}, 2, "das|cas"},
		{[]string{"-aps", "2"}, 1, "unsupported AP count 2"},
		{[]string{"-trace", "out.csi"}, 2, "flag provided but not defined: -trace"},
	} {
		out, errOut, code := run(t, tc.args...)
		if code != tc.code {
			t.Errorf("%q: exit %d, want %d", tc.args, code, tc.code)
		}
		if out != "" {
			t.Errorf("%q: printed a deployment:\n%s", tc.args, out)
		}
		if !strings.Contains(errOut, tc.mentions) {
			t.Errorf("%q: stderr %q does not mention %q", tc.args, errOut, tc.mentions)
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
