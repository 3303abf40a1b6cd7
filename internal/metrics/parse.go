package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a metric name, its label
// pairs, and the value. Histogram series parse into their expanded
// names (name_bucket with an "le" label, name_sum, name_count).
type Sample struct {
	Name     string
	Labels   map[string]string
	Value    float64
	Exemplar *Exemplar // OpenMetrics exemplar, nil when the line has none
}

// Exemplar is a parsed OpenMetrics exemplar: the label set (typically
// just trace_id) and the exemplar's own observed value.
type Exemplar struct {
	Labels map[string]string
	Value  float64
}

// Label returns the sample's value for key ("" when absent).
func (s Sample) Label(key string) string { return s.Labels[key] }

// Parse reads a Prometheus text exposition document — the output of
// Registry.WritePrometheus, or any other conforming exporter — into
// samples. Comment and blank lines are skipped; a malformed line is an
// error (scrapes are machine-produced, so corruption should be loud).
func Parse(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("metrics: malformed line %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest[1:], s.Labels)
		if err != nil {
			return s, fmt.Errorf("metrics: %v in line %q", err, line)
		}
		rest = end
	}
	var exPart string
	if i := strings.Index(rest, " # "); i >= 0 {
		exPart = strings.TrimSpace(rest[i+3:])
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("metrics: missing value in line %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("metrics: bad value %q in line %q", fields[0], line)
	}
	s.Value = v
	if exPart != "" {
		ex, err := parseExemplar(exPart)
		if err != nil {
			return s, fmt.Errorf("metrics: %v in line %q", err, line)
		}
		s.Exemplar = ex
	}
	return s, nil
}

// parseExemplar parses the `{label="v", ...} value` tail after a
// line's " # " exemplar marker.
func parseExemplar(part string) (*Exemplar, error) {
	if !strings.HasPrefix(part, "{") {
		return nil, fmt.Errorf("malformed exemplar %q", part)
	}
	ex := &Exemplar{Labels: map[string]string{}}
	rest, err := parseLabels(part[1:], ex.Labels)
	if err != nil {
		return nil, fmt.Errorf("%v in exemplar %q", err, part)
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, fmt.Errorf("missing exemplar value in %q", part)
	}
	ex.Value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q", fields[0])
	}
	return ex, nil
}

// parseLabels consumes k="v" pairs up to the closing brace, returning
// the unconsumed remainder. Escaped quotes, backslashes and newlines
// in values are unescaped.
func parseLabels(rest string, into map[string]string) (string, error) {
	for {
		rest = strings.TrimLeft(rest, " ,")
		if strings.HasPrefix(rest, "}") {
			return rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			return rest, fmt.Errorf("malformed label pair")
		}
		key := strings.TrimSpace(rest[:eq])
		rest = rest[eq+2:]
		var val strings.Builder
		for {
			i := strings.IndexAny(rest, `\"`)
			if i < 0 {
				return rest, fmt.Errorf("unterminated label value")
			}
			val.WriteString(rest[:i])
			if rest[i] == '"' {
				rest = rest[i+1:]
				break
			}
			if len(rest) < i+2 {
				return rest, fmt.Errorf("trailing escape")
			}
			switch rest[i+1] {
			case 'n':
				val.WriteByte('\n')
			default:
				val.WriteByte(rest[i+1])
			}
			rest = rest[i+2:]
		}
		into[key] = val.String()
	}
}

// Value returns the first sample named name whose labels include every
// given pair (a subset match, so callers need not spell out labels
// they do not care about), and whether one was found.
func Value(samples []Sample, name string, labels ...Label) (float64, bool) {
	for _, s := range samples {
		if s.Name != name || !matches(s, labels) {
			continue
		}
		return s.Value, true
	}
	return 0, false
}

func matches(s Sample, labels []Label) bool {
	for _, l := range labels {
		if s.Labels[l.Key] != l.Value {
			return false
		}
	}
	return true
}

// Bucket is one cumulative histogram bucket: the count of samples at
// or below the LE upper bound.
type Bucket struct {
	LE, Count float64
}

// Buckets collects the cumulative buckets of histogram name (its
// name_bucket samples matching labels), sorted by upper bound with
// +Inf last — the input shape of BucketQuantile.
func Buckets(samples []Sample, name string, labels ...Label) []Bucket {
	var out []Bucket
	for _, s := range samples {
		if s.Name != name+"_bucket" || !matches(s, labels) {
			continue
		}
		le, err := parseLE(s.Label("le"))
		if err != nil {
			continue
		}
		out = append(out, Bucket{LE: le, Count: s.Value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LE < out[j].LE })
	return out
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// BucketQuantile estimates the q-quantile (0 <= q <= 1) from
// cumulative buckets, linearly interpolating within the bucket the
// rank falls into — the same estimate Prometheus's histogram_quantile
// computes. It returns NaN for an empty histogram. A rank landing in
// the +Inf bucket returns the highest finite bound (the histogram
// cannot say more).
func BucketQuantile(q float64, buckets []Bucket) float64 {
	if len(buckets) == 0 || buckets[len(buckets)-1].Count == 0 {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].Count
	rank := q * total
	idx := sort.Search(len(buckets), func(i int) bool { return buckets[i].Count >= rank })
	if idx == len(buckets) {
		idx = len(buckets) - 1
	}
	if idx == len(buckets)-1 && math.IsInf(buckets[idx].LE, 1) {
		// Rank beyond the last finite bound: report that bound.
		if len(buckets) == 1 {
			return math.NaN()
		}
		return buckets[len(buckets)-2].LE
	}
	lo, loCount := 0.0, 0.0
	if idx > 0 {
		lo, loCount = buckets[idx-1].LE, buckets[idx-1].Count
	}
	hi, hiCount := buckets[idx].LE, buckets[idx].Count
	if hiCount == loCount {
		return hi
	}
	return lo + (hi-lo)*(rank-loCount)/(hiCount-loCount)
}
