package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"declnet/internal/addr"
	"declnet/internal/core"
	"declnet/internal/intent"
	"declnet/internal/qos"
)

// The mutation body decoder: one pass over the body bytes straight into
// []core.BatchOp, parsing permit entries on the way. For /v1/batch it
// accepts exactly what json.Decoder with DisallowUnknownFields, followed
// by a check that only whitespace remains, accepts for a BatchRequest,
// and yields what decoding one and converting its ops would; for a
// single-verb route the same holds for the route's request struct,
// whose fields become the operands of one op of the route's verb
// (FuzzBatchDecode and FuzzRouteDecode hold the two together):
//
//   - a key names a field as encoding/json matches one, exactly or else
//     under bytes.EqualFold ("OP", "ſip"); any other key is an error;
//   - a repeated key decodes again into what the one before it set, so
//     the last value wins — and an array element decodes into the slot
//     the earlier array held there, as encoding/json reuses a slice;
//   - null sets an array to nil and leaves a string or number be;
//   - weight parses as strconv.ParseInt does, bandwidth_bps as
//     strconv.ParseFloat; any other value of the wrong type is an error;
//   - a string holding a backslash or a byte past ASCII is handed to
//     json.Unmarshal, which settles escapes and invalid UTF-8.
//
// Permit entries and set_potato policies are checked once the whole body
// has decoded (finish), in op order, as the request's ops are.

var (
	requestFields = []string{"tenant", "ops"}
	opFields      = []string{"op", "vm", "provider", "eip", "sip", "target", "weight",
		"entries", "groups", "region", "bandwidth_bps", "policy", "name", "members"}
)

// decode decodes b.buf into b.ops and returns the tenant: a /v1/batch
// body, or, when b.rt names a verb, that route's body as its one op.
func (b *batchBuf) decode() (tenant string, err error) {
	keys := requestFields
	if b.rt.verb != "" {
		keys = b.rt.keys
		b.ops, b.policy = append(b.ops[:0], core.BatchOp{Op: b.rt.verb}), append(b.policy[:0], "")
	}
	b.at = 0
	switch b.peek() {
	case '{':
		err = b.object(func(key []byte) error {
			switch name := field(key, keys); name {
			case "tenant":
				return b.text(&tenant)
			case "ops":
				return b.opList()
			default:
				return b.operand(0, name, key)
			}
		})
	case 'n':
		err = b.null()
	default:
		err = b.fail("want the request object")
	}
	b.peek()
	if err == nil && b.at < len(b.buf) {
		err = b.fail("data after the JSON value")
	}
	return tenant, err
}

// opList decodes the "ops" array into b.ops. Element i decodes over the
// op a repeated "ops" key left at i, if any (i < b.held), as encoding/json
// decodes into the slice it holds; an empty or null array forgets them.
func (b *batchBuf) opList() error {
	n, err := b.array(func(i int) error {
		if i >= b.held {
			b.ops, b.policy = append(b.ops[:i], core.BatchOp{}), append(b.policy[:i], "")
			b.held = i + 1
		} else if i >= len(b.ops) {
			b.ops, b.policy = b.ops[:i+1], b.policy[:i+1]
		}
		switch b.peek() {
		case '{':
			return b.op(i)
		case 'n':
			return b.null()
		}
		return b.fail("want an op object")
	})
	if n <= 0 {
		b.held, n = 0, 0
	}
	b.ops, b.policy = b.ops[:n], b.policy[:n]
	return err
}

// op decodes the object at b.at into op i, over what the slot holds.
func (b *batchBuf) op(i int) error {
	return b.object(func(key []byte) error { return b.operand(i, field(key, opFields), key) })
}

// operand decodes the value at b.at into op i's field name; an empty
// name is a key the body may not carry.
func (b *batchBuf) operand(i int, name string, key []byte) error {
	if name == "" {
		return fmt.Errorf("unknown field %q", key)
	}
	o := &b.ops[i]
	switch name {
	case "op":
		return b.text(&o.Op)
	case "vm":
		return b.text((*string)(&o.VM))
	case "provider":
		return b.text(&o.Provider)
	case "eip":
		return b.text(&o.EIP)
	case "sip":
		return b.text(&o.SIP)
	case "target":
		return b.text(&o.Target)
	case "weight":
		return b.number(func(num string) error {
			n, err := strconv.ParseInt(num, 10, 64)
			o.Weight = int(n)
			return err
		})
	case "entries":
		return list(b, &o.Entries, &b.prefixes, b.entry)
	case "groups":
		return list(b, &o.Groups, &b.texts, b.textAt)
	case "region":
		return b.text(&o.Region)
	case "bandwidth_bps":
		return b.number(func(num string) (err error) {
			o.Bandwidth, err = strconv.ParseFloat(num, 64)
			return err
		})
	case "policy":
		return b.text(&b.policy[i])
	case "name":
		return b.text(&o.Name)
	case "members":
		return list(b, &o.Members, &b.texts, b.textAt)
	}
	return fmt.Errorf("field %q has no operand", name)
}

// finish checks each op's permit entries and, for set_potato, parses its
// policy, in op order; the first failure is the request's 400, naming
// the op in a /v1/batch. An op with
// no entries gets an empty list, as a decoded request's ops always had.
func (b *batchBuf) finish() error {
	for i := range b.ops {
		o := &b.ops[i]
		if o.Entries == nil {
			o.Entries = []addr.Prefix{}
		}
		for _, p := range o.Entries {
			if p.Len < 0 {
				_, err := ParsePermitEntry(b.bad[p.Addr])
				if b.rt.verb != "" {
					return err
				}
				return fmt.Errorf("api: batch op %d (%s): %w", i, o.Op, err)
			}
		}
		if o.Op == intent.OpSetPotato {
			var err error
			if o.Policy, err = qos.ParsePotatoPolicy(b.policy[i]); err != nil {
				if b.rt.verb != "" {
					return fmt.Errorf("api: unknown policy %q", b.policy[i])
				}
				return fmt.Errorf("api: batch op %d: unknown policy %q", i, b.policy[i])
			}
		}
	}
	return nil
}

// field returns the name among names that key selects, or "".
func field(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n || bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// entry decodes one permit entry into p. One that does not parse is kept
// as a stand-in, Len -1 and Addr its index in b.bad, for finish to report
// if no later key replaces it; a fresh slot's null is the entry "".
func (b *batchBuf) entry(p *addr.Prefix, held bool) error {
	if b.peek() == 'n' {
		if !held {
			*p = b.permitEntry("")
		}
		return b.null()
	}
	s, err := b.str()
	if err == nil {
		*p = b.permitEntry(string(s))
	}
	return err
}

// permitEntry parses s; it copies s only to keep one that does not parse,
// so parsing string(bytes) allocates nothing.
func (b *batchBuf) permitEntry(s string) addr.Prefix {
	p, err := ParsePermitEntry(s)
	if err != nil {
		b.bad = append(b.bad, strings.Clone(s))
		return addr.Prefix{Addr: addr.IP(len(b.bad) - 1), Len: -1}
	}
	return p
}

// textAt decodes one element of a string array.
func (b *batchBuf) textAt(s *string, _ bool) error { return b.text(s) }

// list decodes the array at b.at into *dst as encoding/json decodes into
// a slice: null sets nil and [] an empty slice; element i decodes into
// the slot *dst holds at i, if any (held) — so a repeated key's null
// element keeps what the key before it set — or else a fresh one. Every
// slice list makes is allocated at its length, so its capacity is the
// slots it holds; elements past them are gathered in scratch first.
func list[T any](b *batchBuf, dst, scratch *[]T, elem func(slot *T, held bool) error) error {
	old, extra := (*dst)[:cap(*dst)], (*scratch)[:0]
	n, err := b.array(func(i int) error {
		if i < len(old) {
			return elem(&old[i], true)
		}
		var zero T
		extra = append(extra, zero)
		return elem(&extra[len(extra)-1], false)
	})
	switch {
	case err != nil:
	case n < 0:
		*dst = nil
	case n == 0:
		*dst = []T{}
	case n <= len(old):
		*dst = old[:n]
	default:
		*dst = append(append(make([]T, 0, n), old...), extra...)
	}
	clear(extra)
	*scratch = extra[:0]
	return err
}

// array decodes the array at b.at, calling elem with each element's
// index, and returns the element count, or -1 for null.
func (b *batchBuf) array(elem func(i int) error) (int, error) {
	switch b.peek() {
	case 'n':
		return -1, b.null()
	case '[':
	default:
		return 0, b.fail("want an array")
	}
	b.at++
	if b.peek() == ']' {
		b.at++
		return 0, nil
	}
	for n := 0; ; {
		if err := elem(n); err != nil {
			return n, err
		}
		n++
		switch b.peek() {
		case ',':
			b.at++
		case ']':
			b.at++
			return n, nil
		default:
			return n, b.fail("want , or ]")
		}
	}
}

// object decodes the object at b.at, calling member with each key, its
// value at b.at.
func (b *batchBuf) object(member func(key []byte) error) error {
	b.at++
	if b.peek() == '}' {
		b.at++
		return nil
	}
	for {
		if b.peek() != '"' {
			return b.fail("want a key")
		}
		key, err := b.str()
		if err != nil {
			return err
		}
		if b.peek() != ':' {
			return b.fail("want :")
		}
		b.at++
		b.peek()
		if err := member(key); err != nil {
			return err
		}
		switch b.peek() {
		case ',':
			b.at++
		case '}':
			b.at++
			return nil
		default:
			return b.fail("want , or }")
		}
	}
}

// text decodes a string field into *s: a string sets it, null leaves it.
func (b *batchBuf) text(s *string) error {
	if b.peek() == 'n' {
		return b.null()
	}
	v, err := b.str()
	if err == nil {
		*s = string(v)
	}
	return err
}

// str decodes the string at b.at to its value's bytes: a slice of the
// body when plain, else json.Unmarshal's reading of it.
func (b *batchBuf) str() ([]byte, error) {
	if b.peek() != '"' {
		return nil, b.fail("want a string")
	}
	start, plain := b.at, true
	for i := start + 1; i < len(b.buf); i++ {
		switch c := b.buf[i]; {
		case c == '"':
			b.at = i + 1
			if plain {
				return b.buf[start+1 : i], nil
			}
			var s string
			if err := json.Unmarshal(b.buf[start:b.at], &s); err != nil {
				return nil, err
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			return nil, b.fail("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	return nil, b.fail("unterminated string")
}

// number decodes a number field: a JSON number is handed to set, whose
// error is a type mismatch; null leaves the field be. The number is the
// run of bytes a number can hold: in valid JSON a delimiter ends it, so
// a run json.Valid refuses is a syntax error either way.
func (b *batchBuf) number(set func(num string) error) error {
	if b.peek() == 'n' {
		return b.null()
	}
	start := b.at
	for b.at < len(b.buf) && strings.IndexByte("0123456789+-.eE", b.buf[b.at]) >= 0 {
		b.at++
	}
	num := b.buf[start:b.at]
	if len(num) == 0 || !json.Valid(num) {
		return b.fail("want a number")
	}
	if err := set(string(num)); err != nil {
		return fmt.Errorf("number %s: %w", num, err)
	}
	return nil
}

func (b *batchBuf) null() error {
	if !bytes.HasPrefix(b.buf[b.at:], []byte("null")) {
		return b.fail("want a value")
	}
	b.at += len("null")
	return nil
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (b *batchBuf) peek() byte {
	for ; b.at < len(b.buf); b.at++ {
		switch c := b.buf[b.at]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (b *batchBuf) fail(what string) error {
	return fmt.Errorf("offset %d: %s", b.at, what)
}
