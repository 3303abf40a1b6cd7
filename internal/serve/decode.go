package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// The /v1/locate body decoder: a fixed-shape scanner for the shape
// clients send, with decodeDocument over the same bytes as the
// fallback. The package doc ("Request decoding") states the shape the
// scanner takes; everything else gets encoding/json's result exactly.

// maxPooledBody caps the body buffer a pooled scratch keeps, so one
// large request does not pin its buffer in the pool. It also caps the
// presizing from Content-Length: a declared length is the client's
// claim, and allocating it before the bytes arrive would let an idle
// connection pin up to MaxBodyBytes.
const maxPooledBody = 1 << 20

// decodeLocate reads r's body, capped at limit bytes, into sc.body
// and decodes it into sc.req: by scanLocate when the body has the
// canonical shape, otherwise by encoding/json. Its error follows
// bodyDecoded's convention.
func (sc *locateScratch) decodeLocate(w http.ResponseWriter, r *http.Request, limit int64) error {
	size := r.ContentLength
	if size < 0 || size >= min(limit, maxPooledBody) {
		size = 0
	}
	body, err := readBody(sc.body, http.MaxBytesReader(w, r.Body, limit), int(size))
	sc.body = body
	if err == nil && scanLocate(body, &sc.req) {
		return nil
	}
	// encoding/json writes only the fields present in the body, so the
	// reused request — and every element of its Points array, where an
	// omitted coordinate would otherwise keep an earlier request's
	// value — is zeroed before it refills them in place.
	pts := sc.req.Points[:cap(sc.req.Points)]
	clear(pts)
	sc.req = LocateRequest{Points: pts[:0]}
	// A read error (over the cap, or a broken connection) reaches the
	// decoder after the bytes read before it, exactly where reading
	// the body directly would have met it: a syntax error inside the
	// cap stays a 400, and every other oversized body a 413.
	src := io.Reader(bytes.NewReader(body))
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	return decodeDocument(json.NewDecoder(src), &sc.req)
}

// release returns sc to the pool, dropping a body buffer over
// maxPooledBody.
func (sc *locateScratch) release() {
	if cap(sc.body) > maxPooledBody {
		sc.body = nil
	}
	locatePool.Put(sc)
}

// errReader is a reader that fails with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readBody reads rd to its end into buf[:0], growing buf as needed
// (with room for size+1 bytes up front, so a body of the announced
// size is read to its EOF without regrowing), and returns the bytes
// read and the first read error other than io.EOF.
func readBody(buf []byte, rd io.Reader, size int) ([]byte, error) {
	if n := max(size+1, 512); cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scanLocate decodes body into req when body has the canonical shape
// (see the package doc) and reports whether it did. On false, req
// holds a partial decode and must be zeroed before reuse. req.Points
// keeps its backing array and is refilled from index 0.
func scanLocate(body []byte, req *LocateRequest) bool {
	s := scanner{b: body}
	*req = LocateRequest{Points: req.Points[:0]}
	if !s.tok('{') {
		return false
	}
	if s.tok('}') {
		return s.end()
	}
	var seen uint8
	for {
		key, ok := s.str()
		if !ok || !s.tok(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "network":
			bit = 1
			req.Network, ok = s.text()
		case "resolver":
			bit = 2
			req.Resolver, ok = s.text()
		case "eps":
			bit = 4
			req.Eps, ok = s.num()
		case "radius":
			bit = 8
			req.Radius, ok = s.num()
		case "points":
			bit = 16
			req.Points, ok = s.points(req.Points)
		}
		if bit == 0 || !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.tok(',') {
			return s.tok('}') && s.end()
		}
	}
}

// decodePointLine decodes one NDJSON point line of /v1/locate/stream:
// by the scanner when the line is a lone point object in the canonical
// shape, otherwise by json.Unmarshal into a fresh point.
func decodePointLine(line []byte) (PointJSON, error) {
	s := scanner{b: line}
	if p, ok := s.point(); ok && s.end() {
		return p, nil
	}
	var p PointJSON
	err := json.Unmarshal(line, &p)
	return p, err
}

// scanner walks a request body for scanLocate and decodePointLine. Each
// method skips leading JSON whitespace and reports false on anything
// outside the canonical shape.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// tok consumes the structural byte c.
func (s *scanner) tok(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// str scans a string of printable ASCII without escapes and returns
// its contents, aliasing the body.
func (s *scanner) str() ([]byte, bool) {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i+1 : j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text scans a string value like str and copies it out of the body.
func (s *scanner) text() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

// num scans a number of the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and parses it with
// strconv.ParseFloat, failing on a range error.
func (s *scanner) num() (float64, bool) {
	s.ws()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return 0, false
		}
		i = digits(b, i+2)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return 0, false
		}
		i = digits(b, i+1)
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	if err != nil {
		return 0, false
	}
	s.i = i
	return f, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit of b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// points scans the "points" array into dst[:0], the pooled array of
// the request, and returns it.
//
//sinr:hotpath
func (s *scanner) points(dst []PointJSON) ([]PointJSON, bool) {
	dst = dst[:0]
	if !s.tok('[') {
		return dst, false
	}
	if s.tok(']') {
		return dst, true
	}
	for {
		p, ok := s.point()
		if !ok {
			return dst, false
		}
		dst = append(dst, p)
		if !s.tok(',') {
			return dst, s.tok(']')
		}
	}
}

// point scans one {"x": ..., "y": ...} object.
func (s *scanner) point() (PointJSON, bool) {
	var p PointJSON
	if !s.tok('{') {
		return p, false
	}
	if s.tok('}') {
		return p, true
	}
	var seen uint8
	for {
		key, ok := s.str()
		if !ok || !s.tok(':') {
			return p, false
		}
		var bit uint8
		switch string(key) {
		case "x":
			bit = 1
			p.X, ok = s.num()
		case "y":
			bit = 2
			p.Y, ok = s.num()
		}
		if bit == 0 || !ok || seen&bit != 0 {
			return p, false
		}
		seen |= bit
		if !s.tok(',') {
			return p, s.tok('}')
		}
	}
}
