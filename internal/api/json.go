package api

// The eval path's JSON codec: the scanner and appenders behind
// POST /v1/eval, POST /v1/eval/batch, GET /v1/results/{id} and the client's
// EvalBatch. The contract is in the package comment; encoding/json is this
// file's test oracle (json_test.go) and is called from it in two places
// only: to unquote a string literal that holds an escape or invalid UTF-8,
// and to render a request source of a Go type FromJSON does not know.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/value"
)

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// scanner walks one JSON document held in memory.
type scanner struct {
	b        []byte
	i, depth int
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("api: invalid JSON at offset %d: want %s", s.i, what)
}

func mismatch(field, want string) error { return fmt.Errorf("api: %s must be %s", field, want) }

// at returns the byte under the cursor, 0 past the end (a literal NUL is
// valid nowhere outside a string, so 0 never needs telling apart).
func (s *scanner) at() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// peek skips whitespace and returns the byte under the cursor.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return c
		}
	}
	return 0
}

var literals = [256]string{'t': "true", 'f': "false", 'n': "null"}

// literal consumes true, false or null and returns its first byte.
func (s *scanner) literal() (byte, error) {
	c := s.at()
	w := literals[c]
	if w == "" || len(s.b)-s.i < len(w) || string(s.b[s.i:s.i+len(w)]) != w {
		return c, s.fail("a value")
	}
	s.i += len(w)
	return c, nil
}

// str consumes the string literal under the cursor and returns its
// contents: a sub-slice of the input when the literal holds no escape and
// is valid UTF-8, otherwise whatever encoding/json unquotes it to.
func (s *scanner) str() ([]byte, error) {
	start, plain := s.i+1, true
	for j := start; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			s.i = j + 1
			if plain || utf8.Valid(s.b[start:j]) && !slices.Contains(s.b[start:j], '\\') {
				return s.b[start:j], nil
			}
			var out string
			err := json.Unmarshal(s.b[start-1:s.i], &out)
			return []byte(out), err
		case c == '\\':
			plain = false
			j++ // the escaped byte cannot close the literal
		case c < ' ':
			s.i = j
			return nil, s.fail("no control character in a string")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	s.i = len(s.b)
	return nil, s.fail(`a closing '"'`)
}

// text consumes a string for the named field.
func (s *scanner) text(field string) (string, error) {
	if s.peek() != '"' {
		return "", mismatch(field, "a string")
	}
	b, err := s.str()
	return string(b), err
}

// digits consumes a run of digits and reports whether there was one.
func (s *scanner) digits() bool {
	start := s.i
	for c := s.at(); '0' <= c && c <= '9'; c = s.at() {
		s.i++
	}
	return s.i > start
}

// num consumes a number literal for the named field by the RFC 8259
// grammar and reports whether it has neither fraction nor exponent.
func (s *scanner) num(field string) (lit []byte, integral bool, err error) {
	start := s.i
	if c := s.at(); c != '-' && (c < '0' || c > '9') {
		return nil, false, mismatch(field, "a number")
	} else if c == '-' {
		s.i++
	}
	if s.at() == '0' {
		s.i++
	} else if !s.digits() {
		return nil, false, s.fail("a digit")
	}
	integral = true
	if s.at() == '.' {
		s.i++
		if integral = false; !s.digits() {
			return nil, false, s.fail("a digit")
		}
	}
	if c := s.at(); c == 'e' || c == 'E' {
		s.i++
		if c = s.at(); c == '+' || c == '-' {
			s.i++
		}
		if integral = false; !s.digits() {
			return nil, false, s.fail("a digit")
		}
	}
	return s.b[start:s.i], integral, nil
}

func (s *scanner) float(field string) (float64, error) {
	lit, _, err := s.num(field)
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(lit), 64)
}

func (s *scanner) integer(field string) (int, error) {
	lit, _, err := s.num(field)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(lit))
}

// walk consumes the object (member != nil) or array under the cursor,
// calling member with each key, or elem, with the cursor at the value.
func (s *scanner) walk(member func(key []byte) error, elem func() error) error {
	closer := byte(']')
	if member != nil {
		closer = '}'
	}
	s.i++
	if s.depth++; s.depth > maxJSONDepth {
		return s.fail("at most 10000 levels of nesting")
	}
	for n := 0; ; n++ {
		c := s.peek()
		if c == closer {
			s.i++
			s.depth--
			return nil
		}
		if n > 0 {
			if c != ',' {
				return s.fail("',' or a closing bracket")
			}
			s.i++
		}
		if member == nil {
			if err := elem(); err != nil {
				return err
			}
			continue
		}
		if s.peek() != '"' {
			return s.fail("an object key")
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.peek() != ':' {
			return s.fail("':'")
		}
		s.i++
		if err := member(key); err != nil {
			return err
		}
	}
}

// skip validates and consumes one value of any shape.
func (s *scanner) skip() (err error) {
	switch c := s.peek(); {
	case c == '"':
		_, err = s.str()
	case c == '{':
		err = s.walk(func([]byte) error { return s.skip() }, nil)
	case c == '[':
		err = s.walk(nil, s.skip)
	case c == '-' || '0' <= c && c <= '9':
		_, _, err = s.num("")
	default:
		_, err = s.literal()
	}
	return err
}

// tags are the JSON names of the eval wire's struct fields.
var tags = bytes.Fields([]byte("schema strategy sources stream async results values elapsed_ms work wasted_work launched synthesis_runs failures error"))

// field returns an object key in its struct tag's spelling if it selects a
// field: encoding/json matches a key to a field exactly or else under
// Unicode simple case folding ("Schema", "SOURCES").
func field(key []byte) []byte {
	for _, c := range key {
		if (c < 'a' || c > 'z') && c != '_' { // not a tag as it stands
			for _, tag := range tags {
				if bytes.EqualFold(key, tag) {
					return tag
				}
			}
			break
		}
	}
	return key
}

// --- request decode (server side) ---

// value decodes one source value by FromJSON's rule for json.Number: an
// integral literal int64 can hold is an Int, any other number a Float, an
// out-of-range one an error; arrays are lists; objects are not values.
func (s *scanner) value() (v value.Value, err error) {
	switch c := s.peek(); {
	case c == '"':
		b, err := s.str()
		return value.Str(string(b)), err
	case c == '{':
		return v, errors.New("api: unsupported JSON value: an object")
	case c == '[':
		var elems []value.Value
		err = s.walk(nil, func() error {
			e, err := s.value()
			elems = append(elems, e)
			return err
		})
		return value.List(elems...), err
	case c == '-' || '0' <= c && c <= '9':
		lit, integral, err := s.num("")
		if err != nil {
			return v, err
		}
		if integral {
			if i, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
				return value.Int(i), nil
			}
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return v, fmt.Errorf("api: bad number %s", lit)
		}
		return value.Float(f), nil
	default:
		if c, err = s.literal(); c == 'n' {
			return v, err
		}
		return value.Bool(c == 't'), err
	}
}

// ScannedRequest is the top level of an EvalRequest or BatchRequest body,
// with the sources syntax-checked but not yet decoded: the server resolves
// Schema first and then decodes each instance straight into that schema's
// source slots through Sources.
type ScannedRequest struct {
	Schema, Strategy string
	// Flag is BatchRequest.Stream or EvalRequest.Async.
	Flag bool
	// N is the number of instances: len(sources) of a batch, 1 otherwise.
	N int

	batch   bool
	sources []byte // the raw sources value; nil when absent or null
}

// ScanBatchRequest scans a POST /v1/eval/batch body.
func ScanBatchRequest(body []byte) (ScannedRequest, error) { return scanRequest(body, true, "stream") }

// ScanEvalRequest scans a POST /v1/eval body.
func ScanEvalRequest(body []byte) (ScannedRequest, error) { return scanRequest(body, false, "async") }

func scanRequest(body []byte, batch bool, flag string) (ScannedRequest, error) {
	r := ScannedRequest{batch: batch}
	if !batch {
		r.N = 1
	}
	s := scanner{b: body}
	if c := s.peek(); c == 'n' { // null decodes to the zero request
		_, err := s.literal()
		return r, err
	} else if c != '{' {
		return r, mismatch("the body", "an object")
	}
	err := s.walk(func(key []byte) (err error) {
		c := s.peek()
		if c == 'n' { // leaves any field as it is
			_, err = s.literal()
			return err
		}
		switch string(field(key)) {
		case "schema":
			r.Schema, err = s.text("schema")
		case "strategy":
			r.Strategy, err = s.text("strategy")
		case flag:
			if c != 't' && c != 'f' {
				return mismatch(flag, "a boolean")
			}
			r.Flag = c == 't'
			_, err = s.literal()
		case "sources":
			start := s.i
			if !batch && c != '{' {
				return mismatch("sources", "an object")
			} else if !batch {
				err = s.skip()
			} else if c != '[' {
				return mismatch("sources", "an array")
			} else {
				r.N = 0
				err = s.walk(nil, func() error {
					if c := s.peek(); c != '{' && c != 'n' {
						return mismatch("sources", "an array of objects")
					}
					r.N++
					return s.skip()
				})
			}
			r.sources = body[start:s.i]
		default:
			err = s.skip()
		}
		return err
	}, nil)
	return r, err
}

// Sources decodes the request's instances in order, handing bind every
// binding: the instance's index, the source's name (which aliases the
// body) and its value. A null instance binds nothing. A repeated source
// binds each occurrence in turn, so the last one wins; one that is no value
// (an object, a number out of range) is an error only if it is the last.
func (r *ScannedRequest) Sources(bind func(i int, name []byte, v value.Value)) error {
	if r.sources == nil {
		return nil
	}
	s, i := scanner{b: r.sources}, -1
	instance := func() error {
		if i++; s.peek() != '{' {
			_, err := s.literal()
			return err
		}
		var bad []badSource // sources whose last value so far is no value
		err := s.walk(func(name []byte) error {
			start, depth := s.i, s.depth
			v, err := s.value()
			if len(bad) > 0 {
				bad = slices.DeleteFunc(bad, func(b badSource) bool { return b.name == string(name) })
			}
			if err != nil {
				bad = append(bad, badSource{string(name), fmt.Errorf("instance %d: source %q: %w", i, name, err)})
				s.i, s.depth = start, depth // the scan checked its syntax: skip it
				return s.skip()
			}
			bind(i, name, v)
			return nil
		}, nil)
		if err == nil && len(bad) > 0 {
			err = bad[0].err
		}
		return err
	}
	if !r.batch {
		return instance()
	}
	return s.walk(nil, instance)
}

// badSource is a source occurrence that is no value, with its error.
type badSource struct {
	name string
	err  error
}

// --- response decode (client side) ---

// any decodes one value into the dynamic types json.Unmarshal gives an
// interface: nil, bool, float64, string, []any, map[string]any.
func (s *scanner) any() (any, error) {
	switch c := s.peek(); {
	case c == '"':
		b, err := s.str()
		return string(b), err
	case c == '{':
		m := map[string]any{}
		return m, s.members(m, nil)
	case c == '[':
		out := []any{}
		err := s.walk(nil, func() error {
			x, err := s.any()
			out = append(out, x)
			return err
		})
		return out, err
	case c == '-' || '0' <= c && c <= '9':
		f, err := s.float("")
		return f, err
	default:
		c, err := s.literal()
		if c == 'n' {
			return nil, err
		}
		return c == 't', err
	}
}

// members decodes the object under the cursor into m, interning its keys:
// every result of a batch repeats the same few target names.
func (s *scanner) members(m map[string]any, names *[]string) error {
	return s.walk(func(key []byte) error {
		x, err := s.any()
		if names == nil {
			m[string(key)] = x
			return err
		}
		for _, n := range *names {
			if n == string(key) {
				m[n] = x
				return err
			}
		}
		n := string(key)
		if m[n] = x; len(*names) < 64 {
			*names = append(*names, n)
		}
		return err
	}, nil)
}

// DecodeBatchResponse decodes a POST /v1/eval/batch response body as
// json.Unmarshal does into a BatchResponse; sizeHint is the number of
// results the caller expects.
func DecodeBatchResponse(data []byte, sizeHint int) (out []EvalResult, err error) {
	var names []string
	s := scanner{b: data}
	switch s.peek() {
	case 'n':
		_, err = s.literal()
	case '{':
		err = s.walk(func(key []byte) error {
			if c := s.peek(); c == 'n' || string(field(key)) != "results" {
				return s.skip()
			} else if c != '[' {
				return mismatch("results", "an array")
			}
			out = make([]EvalResult, 0, sizeHint)
			return s.walk(nil, func() error {
				out = append(out, EvalResult{})
				return s.result(&out[len(out)-1], &names)
			})
		}, nil)
	default:
		err = mismatch("the body", "an object")
	}
	if s.peek(); err == nil && s.i < len(s.b) {
		err = s.fail("nothing after the top-level value")
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// result decodes one EvalResult object (or null, which leaves r zero).
func (s *scanner) result(r *EvalResult, names *[]string) error {
	if c := s.peek(); c == 'n' {
		_, err := s.literal()
		return err
	} else if c != '{' {
		return mismatch("results", "an array of objects")
	}
	return s.walk(func(key []byte) (err error) {
		c := s.peek()
		if c == 'n' {
			_, err = s.literal()
			return err
		}
		switch string(field(key)) {
		case "values":
			if c != '{' {
				return mismatch("values", "an object")
			}
			if r.Values == nil {
				r.Values = make(map[string]any, len(*names))
			}
			err = s.members(r.Values, names)
		case "elapsed_ms":
			r.ElapsedMs, err = s.float("elapsed_ms")
		case "work":
			r.Work, err = s.integer("work")
		case "wasted_work":
			r.WastedWork, err = s.integer("wasted_work")
		case "launched":
			r.Launched, err = s.integer("launched")
		case "synthesis_runs":
			r.SynthesisRuns, err = s.integer("synthesis_runs")
		case "failures":
			r.Failures, err = s.integer("failures")
		case "error":
			r.Error, err = s.text("error")
		default:
			err = s.skip()
		}
		return err
	}, nil)
}

// --- appenders ---

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as the string literal json.Marshal writes:
// the two-character escapes, a six-character escape for the other control
// bytes and for <, > and &, the escaped replacement character for each byte
// of invalid UTF-8, and the line and paragraph separators escaped.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := s[i], 1
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			var r rune
			if r, size = utf8.DecodeRuneInString(s[i:]); !(r == utf8.RuneError && size == 1) && r != 0x2028 && r != 0x2029 {
				i += size
				continue
			}
		}
		b = append(b, s[start:i]...)
		if j := strings.IndexByte("\"\\\b\f\n\r\t", c); j >= 0 {
			b = append(b, '\\', `"\bfnrt`[j])
		} else if c < utf8.RuneSelf {
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		} else if size == 1 {
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		} else { // U+2028 or U+2029: e2 80 a8 or e2 80 a9
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[s[i+2]&0xf])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendFloat appends a finite float as json.Marshal does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, and a
// two-digit exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendValue appends json.Marshal(ToJSON(v)). ok is false, and b holds a
// partial value, when v holds a float JSON cannot carry (NaN, ±Inf).
func appendValue(b []byte, v value.Value) (_ []byte, ok bool) {
	switch v.Kind() {
	case value.KindBool:
		t, _ := v.AsBool()
		return strconv.AppendBool(b, t), true
	case value.KindInt:
		i, _ := v.AsInt()
		return strconv.AppendInt(b, i, 10), true
	case value.KindFloat:
		f, _ := v.AsFloat()
		return appendFloat(b, f), finite(f)
	case value.KindString:
		s, _ := v.AsString()
		return AppendJSONString(b, s), true
	case value.KindList:
		elems, _ := v.AsList()
		b = append(b, '[')
		for i, e := range elems {
			if i > 0 {
				b = append(b, ',')
			}
			if b, ok = appendValue(b, e); !ok {
				return b, false
			}
		}
		return append(b, ']'), true
	default:
		return append(b, "null"...), true
	}
}

// AppendEvalResult appends the object json.Marshal renders for an
// EvalResult whose Values are names[i] → vals[i], names ascending (the
// order json.Marshal gives map keys); r supplies every other field and
// r.Values is ignored. Nil names render "values":null — an instance that
// never ran. index >= 0 makes it the BatchItem of a streamed batch, the
// result tagged with its request index. A value JSON cannot carry (a
// non-finite float, bare or in a list) is rendered null, and if the
// instance has no error of its own the result's error names the first such
// target: one unrepresentable answer must not cost a batch its other
// instances.
func AppendEvalResult(b []byte, index int, names []string, vals []value.Value, r *EvalResult) []byte {
	b = append(b, '{')
	if index >= 0 {
		b = append(strconv.AppendInt(append(b, `"index":`...), int64(index), 10), ',')
	}
	errMsg := r.Error
	if names == nil {
		b = append(b, `"values":null`...)
	} else {
		b = append(b, `"values":{`...)
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(AppendJSONString(b, name), ':')
			mark, ok := len(b), false
			if b, ok = appendValue(b, vals[i]); !ok {
				b = append(b[:mark], "null"...)
				if errMsg == "" {
					errMsg = fmt.Sprintf("target %q: value is a non-finite float, which JSON cannot carry; sent as null", name)
				}
			}
		}
		b = append(b, '}')
	}
	b = appendFloat(append(b, `,"elapsed_ms":`...), r.ElapsedMs)
	b = strconv.AppendInt(append(b, `,"work":`...), int64(r.Work), 10)
	if r.WastedWork != 0 {
		b = strconv.AppendInt(append(b, `,"wasted_work":`...), int64(r.WastedWork), 10)
	}
	b = strconv.AppendInt(append(b, `,"launched":`...), int64(r.Launched), 10)
	if r.SynthesisRuns != 0 {
		b = strconv.AppendInt(append(b, `,"synthesis_runs":`...), int64(r.SynthesisRuns), 10)
	}
	if r.Failures != 0 {
		b = strconv.AppendInt(append(b, `,"failures":`...), int64(r.Failures), 10)
	}
	if errMsg != "" {
		b = AppendJSONString(append(b, `,"error":`...), errMsg)
	}
	return append(b, '}')
}

// AppendBatchRequest appends json.Marshal(req): sources objects with their
// keys sorted, values of the Go types FromJSON accepts rendered here and
// anything else by encoding/json.
func AppendBatchRequest(b []byte, req *BatchRequest) (_ []byte, err error) {
	b = AppendJSONString(append(b, `{"schema":`...), req.Schema)
	if req.Strategy != "" {
		b = AppendJSONString(append(b, `,"strategy":`...), req.Strategy)
	}
	b = append(b, `,"sources":[`...)
	var keys []string
	for i, m := range req.Sources {
		if i > 0 {
			b = append(b, ',')
		}
		if m == nil {
			b = append(b, "null"...)
			continue
		}
		keys = keys[:0]
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, '{')
		for j, k := range keys {
			if j > 0 {
				b = append(b, ',')
			}
			if b, err = appendAny(append(AppendJSONString(b, k), ':'), m[k]); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	if b = append(b, ']'); req.Sources == nil {
		b = append(b[:len(b)-2], "null"...)
	}
	if req.Stream {
		b = append(b, `,"stream":true`...)
	}
	return append(b, '}'), nil
}

func appendAny(b []byte, x any) (_ []byte, err error) {
	switch t := x.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		return strconv.AppendBool(b, t), nil
	case string:
		return AppendJSONString(b, t), nil
	case int:
		return strconv.AppendInt(b, int64(t), 10), nil
	case int64:
		return strconv.AppendInt(b, t, 10), nil
	case float64:
		if finite(t) {
			return appendFloat(b, t), nil
		}
	case []any:
		if t == nil {
			break
		}
		b = append(b, '[')
		for i, e := range t {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendAny(b, e); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	}
	j, err := json.Marshal(x)
	return append(b, j...), err
}
