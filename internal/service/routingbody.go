package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
)

// decodeRoutingBody decodes a /v1/routing body in one pass
// (DESIGN.md §16). It reads the body once, under decodeBody's maxBodyBytes
// bound, and parses a body in the narrow grammar parseRoutingUpdate
// accepts without reflection. Every other body, and one whose read failed
// or ran past the bound, is replayed through decodeBody: the reference
// decoder produces the result and every error, so error replies are
// byte-identical to it.
func decodeRoutingBody(w http.ResponseWriter, r *http.Request) (RoutingUpdate, error) {
	src := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	body, err := readBody(src, r.ContentLength)
	if err == nil {
		if u, ok := parseRoutingUpdate(body); ok {
			return u, nil
		}
	}
	// The replay is the bytes read so far, then src, which is at EOF or
	// repeats its read error: the stream decodeBody would have read.
	ref := *r
	ref.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), src))
	var u RoutingUpdate
	err = decodeBody(w, &ref, &u)
	return u, err
}

// readBody is io.ReadAll with its buffer sized from the declared length,
// when that is within the bound, so a body is read without regrowing.
func readBody(src io.Reader, declared int64) ([]byte, error) {
	size := 512
	if declared > 0 && declared <= maxBodyBytes {
		size = int(declared) + 1 // room for the read that returns EOF
	}
	b := make([]byte, 0, size)
	for {
		n, err := src.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// parseRoutingUpdate decodes b if it is in the grammar json.Marshal emits
// for a RoutingUpdate, indented or not, and reports whether it was:
//
//   - a top-level object whose keys are exactly "plan" and "counts", each
//     once, in either order, lowercase and unescaped, followed by nothing
//     but whitespace;
//   - "plan" an object that the strict decoder decodes without error;
//   - "counts" a non-empty array of non-empty arrays of integers spelled
//     0 or [1-9][0-9]* that fit an int64.
//
// JSON whitespace may appear between any two tokens. Anything else (signs,
// fractions, exponents, null, escapes, duplicate or case-folded keys)
// declines, and the caller's reference decoder answers instead.
func parseRoutingUpdate(b []byte) (RoutingUpdate, bool) {
	var u RoutingUpdate
	p := routingParser{b: b}
	if !p.token('{') {
		return u, false
	}
	var havePlan, haveCounts bool
	for {
		key, ok := p.key()
		if !ok {
			return u, false
		}
		switch {
		case string(key) == "plan" && !havePlan:
			if !p.plan(&u.Plan) {
				return u, false
			}
			havePlan = true
		case string(key) == "counts" && !haveCounts:
			if u.Counts, ok = p.counts(); !ok {
				return u, false
			}
			haveCounts = true
		default:
			return u, false
		}
		if p.token('}') {
			break
		}
		if !p.token(',') {
			return u, false
		}
	}
	p.space()
	return u, havePlan && haveCounts && p.i == len(b)
}

// routingParser is parseRoutingUpdate's cursor: every method skips the
// whitespace before what it reads and reports false where the grammar
// ends, leaving the body to the reference decoder.
type routingParser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *routingParser) space() {
	b, i := p.b, p.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	p.i = i
}

// token consumes c if it is the next token.
func (p *routingParser) token(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key reads an object key and its colon, returning the key's bytes. A key
// with an escape or a control character declines.
func (p *routingParser) key() ([]byte, bool) {
	if !p.token('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
		if c := p.b[p.i]; c == '\\' || c < ' ' {
			return nil, false
		}
	}
	if p.i == len(p.b) {
		return nil, false
	}
	key := p.b[start:p.i]
	p.i++
	return key, p.token(':')
}

// plan finds the extent of the plan object by bracket depth, skipping
// strings, and decodes exactly those bytes with the strict decoder.
func (p *routingParser) plan(v *PlanRequest) bool {
	p.space()
	start := p.i
	if start == len(p.b) || p.b[start] != '{' {
		return false
	}
	depth, inString := 0, false
	for ; p.i < len(p.b); p.i++ {
		c := p.b[p.i]
		switch {
		case inString && c == '\\':
			p.i++
		case c == '"':
			inString = !inString
		case inString:
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
		}
		if depth == 0 {
			break
		}
	}
	if p.i >= len(p.b) {
		return false
	}
	p.i++
	obj := p.b[start:p.i]
	dec := json.NewDecoder(bytes.NewReader(obj))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil && dec.InputOffset() == int64(len(obj))
}

// counts reads the gate-count matrix into one flat slice, with each row a
// slice over it. The first row sizes the matrix as n rows of n, or as many
// rows as the rest of the body can hold at two bytes an integer, so a long
// first row cannot make it allocate more than the body's size.
func (p *routingParser) counts() ([][]int64, bool) {
	if !p.token('[') {
		return nil, false
	}
	var flat []int64
	var rows [][]int64
	for {
		if !p.token('[') {
			return nil, false
		}
		start := len(flat)
		for {
			v, ok := p.count()
			if !ok {
				return nil, false
			}
			flat = append(flat, v)
			if p.token(']') {
				break
			}
			if !p.token(',') {
				return nil, false
			}
		}
		if rows == nil {
			n := len(flat)
			m := 1 + min(n-1, (len(p.b)-p.i)/2/n)
			flat = append(make([]int64, 0, m*n), flat...)
			rows = make([][]int64, 0, m)
		}
		rows = append(rows, flat[start:len(flat):len(flat)])
		if p.token(']') {
			return rows, true
		}
		if !p.token(',') {
			return nil, false
		}
	}
}

// count reads one gate count: 0 or [1-9][0-9]*, no larger than MaxInt64. A
// leading zero ends the integer at the zero, so the caller's next token
// check declines it, as it does a fraction or an exponent.
func (p *routingParser) count() (int64, bool) {
	p.space()
	b, i := p.b, p.i
	if i == len(b) || b[i] < '0' || b[i] > '9' {
		return 0, false
	}
	if b[i] == '0' {
		p.i = i + 1
		return 0, true
	}
	const cutoff = math.MaxInt64 / 10
	var v int64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := int64(b[i] - '0')
		if v > cutoff || v == cutoff && d > math.MaxInt64%10 {
			return 0, false
		}
		v = v*10 + d
	}
	p.i = i
	return v, true
}
