package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one Prometheus text-exposition snapshot: every sample,
// keyed by its series as rendered ("name" or "name{labels}").
type scrape map[string]float64

// parseProm reads the text exposition format: comments and blank
// lines are skipped; each sample line is `series value [timestamp]`,
// where a series' label block may hold quoted values with escapes
// and spaces.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		end, err := seriesEnd(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", ln, err)
		}
		fields := strings.Fields(line[end:])
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want `series value [timestamp]`: %q", ln, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", ln, err)
		}
		out[line[:end]] = v
	}
	return out, sc.Err()
}

// seriesEnd returns the length of the series part of a sample line:
// the metric name plus its label block, if any.
func seriesEnd(line string) (int, error) {
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return 0, fmt.Errorf("no value: %q", line)
	}
	if line[i] != '{' {
		return i, nil
	}
	inQuote := false
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case inQuote && c == '\\':
			j++ // skip the escaped byte
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return j + 1, nil
		}
	}
	return 0, fmt.Errorf("unterminated label block: %q", line)
}

// metricName strips the label block from a series key.
func metricName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// delta is after minus before, series by series; a series absent
// before counts from 0.
func delta(before, after scrape) scrape {
	out := scrape{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of metric name, whatever its labels.
func (s scrape) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if metricName(k) == name {
			t += v
		}
	}
	return t
}

// histMean is the mean observation of histogram name over the
// snapshot (a delta, usually): sum of _sum over sum of _count, across
// all label sets, or over the one label set given.
func (s scrape) histMean(name, labels string) (float64, error) {
	var sum, count float64
	if labels == "" {
		sum, count = s.sum(name+"_sum"), s.sum(name+"_count")
	} else {
		sum, count = s[name+"_sum{"+labels+"}"], s[name+"_count{"+labels+"}"]
	}
	if count == 0 {
		return 0, fmt.Errorf("histogram %s{%s} observed nothing", name, labels)
	}
	return sum / count, nil
}

// ratio is num/den, refused when den is 0.
func ratio(num, den float64, what string) (float64, error) {
	if den == 0 {
		return 0, fmt.Errorf("%s: nothing to divide by", what)
	}
	return num / den, nil
}

// fetchProm scrapes url's /metrics.
func fetchProm(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}
