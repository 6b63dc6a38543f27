// The snapshot codec. snapshot.json is byte for byte what
// json.NewEncoder(w).Encode(state) writes — the schema is the struct tags
// in state.go, and encoding/json stays the reference the tests and the
// fuzzer compare against — but neither direction hands encoding/json the
// whole world: Encoder.Encode marshals its argument into one buffer
// before its single Write, and Decoder.Decode buffers a complete value
// before unmarshalling it, so either would hold a second, serialised copy
// of every tenant's state in memory. The encoder here appends one entry
// at a time into the caller's bufio.Writer; the decoder walks the
// top-level object and each section token by token and decodes one entry
// at a time.
package intent

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"declnet/internal/addr"
)

// spillAt is how many pending bytes the encoder hands to its writer at a
// time: large enough that the hand-off is noise, small enough that the
// scratch buffer is.
const spillAt = 1 << 12

type snapEncoder struct {
	w    *bufio.Writer
	b    []byte   // bytes not yet handed to w
	keys []uint64 // sort keys, reused across the address-keyed sections
	err  error    // the first value JSON cannot carry (NaN, ±Inf)
}

// encodeSnapshot streams s to w. Write errors stay in w, whose next Flush
// reports them; the error returned here is an unencodable value.
func (s *State) encodeSnapshot(w *bufio.Writer) error {
	e := &snapEncoder{w: w, b: make([]byte, 0, 2*spillAt)}
	e.b = append(e.b, `{"seq":`...)
	e.b = strconv.AppendUint(e.b, s.Seq, 10)
	stringSection(e, "meta", s.Meta, e.str)
	addrSection(e, "endpoints", s.Endpoints, e.endpoint)
	addrSection(e, "services", s.Services, e.service)
	addrSection(e, "permits", s.Permits, e.permitList)
	stringSection(e, "quotas", s.Quotas, e.float)
	stringSection(e, "potato", s.Potato, e.str)
	stringSection(e, "groups", s.Groups, e.addrs)
	stringSection(e, "names", s.Names, e.addr)
	stringSection(e, "eip_pools", s.EIPPools, e.pool)
	stringSection(e, "sip_pools", s.SIPPools, e.pool)
	e.b = append(e.b, '}', '\n')
	w.Write(e.b)
	return e.err
}

func (e *snapEncoder) spill() {
	if len(e.b) >= spillAt {
		e.w.Write(e.b)
		e.b = e.b[:0]
	}
}

// open starts a section; seq precedes every one, hence the comma.
func (e *snapEncoder) open(name string) {
	e.b = append(e.b, ',', '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':', '{')
}

// pow10 is 10^i for the left-alignment below.
var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalOrder maps v to a key that sorts the way encoding/json sorts
// integer map keys: as decimal strings. Comparing two decimal strings is
// comparing the numbers left-aligned to ten digits ("12" vs "100" is
// 1200000000 vs 1000000000) and, on a tie ("1" vs "10"), the digit count;
// both fit one uint64, so a section's keys sort as plain integers with no
// string built. decimalValue is the inverse.
func decimalOrder(v uint32) uint64 {
	digits := 1
	for digits < 10 && uint64(v) >= pow10[digits] {
		digits++
	}
	return (uint64(v)*pow10[10-digits])<<4 | uint64(digits)
}

func decimalValue(key uint64) uint32 {
	return uint32((key >> 4) / pow10[10-(key&15)])
}

// addrSection writes one address-keyed section, omitted when empty as
// the omitempty tags say.
func addrSection[V any](e *snapEncoder, name string, m map[addr.IP]*V, value func(*V)) {
	if len(m) == 0 {
		return
	}
	e.keys = slices.Grow(e.keys[:0], len(m))
	for ip := range m {
		e.keys = append(e.keys, decimalOrder(uint32(ip)))
	}
	slices.Sort(e.keys)
	e.open(name)
	for i, key := range e.keys {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		ip := addr.IP(decimalValue(key))
		e.b = append(e.b, '"')
		e.b = strconv.AppendUint(e.b, uint64(ip), 10)
		e.b = append(e.b, '"', ':')
		if v := m[ip]; v != nil {
			value(v)
		} else {
			e.b = append(e.b, "null"...)
		}
		e.spill()
	}
	e.b = append(e.b, '}')
}

// stringSection is addrSection for the string-keyed sections, which are
// a handful of entries per tenant: their keys sort as themselves.
func stringSection[V any](e *snapEncoder, name string, m map[string]V, value func(V)) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.open(name)
	for i, k := range keys {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(k)
		e.b = append(e.b, ':')
		value(m[k])
		e.spill()
	}
	e.b = append(e.b, '}')
}

func (e *snapEncoder) endpoint(ep *Endpoint) {
	e.b = append(e.b, `{"tenant":`...)
	e.str(ep.Tenant)
	e.b = append(e.b, `,"vm":`...)
	e.str(ep.VM)
	e.b = append(e.b, `,"provider":`...)
	e.str(ep.Provider)
	e.b = append(e.b, `,"region":`...)
	e.str(ep.Region)
	if ep.EgressCap != 0 {
		e.b = append(e.b, `,"egress_cap":`...)
		e.float(ep.EgressCap)
	}
	e.b = append(e.b, '}')
}

func (e *snapEncoder) service(svc *Service) {
	e.b = append(e.b, `{"tenant":`...)
	e.str(svc.Tenant)
	e.b = append(e.b, `,"provider":`...)
	e.str(svc.Provider)
	if len(svc.Binds) > 0 {
		e.b = append(e.b, `,"binds":[`...)
		for i, b := range svc.Binds {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"eip":`...)
			e.addr(b.EIP)
			e.b = append(e.b, `,"weight":`...)
			e.b = strconv.AppendInt(e.b, int64(b.Weight), 10)
			e.b = append(e.b, '}')
			e.spill()
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

func (e *snapEncoder) permitList(pl *PermitList) {
	e.b = append(e.b, `{"tenant":`...)
	e.str(pl.Tenant)
	if len(pl.Entries) > 0 {
		e.b = append(e.b, `,"entries":[`...)
		for i, p := range pl.Entries {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"Addr":`...)
			e.addr(p.Addr)
			e.b = append(e.b, `,"Len":`...)
			e.b = strconv.AppendInt(e.b, int64(p.Len), 10)
			e.b = append(e.b, '}')
			e.spill()
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

func (e *snapEncoder) pool(ps *PoolState) {
	if ps == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, `{"next":`...)
	e.addr(ps.Next)
	if len(ps.Released) > 0 {
		e.b = append(e.b, `,"released":`...)
		e.addrs(ps.Released)
	}
	e.b = append(e.b, '}')
}

func (e *snapEncoder) addr(ip addr.IP) {
	e.b = strconv.AppendUint(e.b, uint64(ip), 10)
}

// addrs keeps encoding/json's distinction between a nil slice (null) and
// an empty one ([]): a group created with no members is the former.
func (e *snapEncoder) addrs(ips []addr.IP) {
	if ips == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, ip := range ips {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.addr(ip)
		e.spill()
	}
	e.b = append(e.b, ']')
}

// float writes f as encoding/json does: the shortest decimal that round
// trips, switching to an exponent below 1e-6 and from 1e21 up, with the
// exponent's leading zero dropped (1e-07 is written 1e-7).
func (e *snapEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("intent: snapshot: unsupported value %v", f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// str writes s as encoding/json's default (HTML-escaping) encoder does:
// ", \, control bytes, <, > and & escaped, an invalid UTF-8 byte written
// as \ufffd, and U+2028 and U+2029 escaped.
func (e *snapEncoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// decodeSnapshot folds a snapshot stream into s, one entry at a time. As
// json.Unmarshal into a State would, it skips an unknown top-level key
// and ignores whatever follows the object; a null section leaves the
// section empty.
func (s *State) decodeSnapshot(r io.Reader) error {
	dec := json.NewDecoder(r)
	if tok, err := dec.Token(); err != nil {
		return err
	} else if tok != json.Delim('{') {
		return fmt.Errorf("snapshot is %v, want an object", tok)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch key, _ := tok.(string); key {
		case "seq":
			err = dec.Decode(&s.Seq)
		case "meta":
			if s.Meta == nil {
				s.Meta = make(map[string]string)
			}
			err = decodeSection(dec, s.Meta, stringKey)
		case "endpoints":
			err = decodeSection(dec, s.Endpoints, addrKey)
		case "services":
			err = decodeSection(dec, s.Services, addrKey)
		case "permits":
			err = decodeSection(dec, s.Permits, addrKey)
		case "quotas":
			err = decodeSection(dec, s.Quotas, stringKey)
		case "potato":
			err = decodeSection(dec, s.Potato, stringKey)
		case "prov_groups":
			err = fmt.Errorf("provider-scoped groups are not supported (groups are tenant-wide)")
		case "groups":
			err = decodeSection(dec, s.Groups, stringKey)
		case "names":
			err = decodeSection(dec, s.Names, stringKey)
		case "eip_pools":
			err = decodeSection(dec, s.EIPPools, stringKey)
		case "sip_pools":
			err = decodeSection(dec, s.SIPPools, stringKey)
		default:
			var skipped json.RawMessage
			err = dec.Decode(&skipped)
		}
		if err != nil {
			return fmt.Errorf("%v: %w", tok, err)
		}
	}
	_, err := dec.Token() // the closing brace, or the syntax error in its place
	return err
}

func stringKey(k string) (string, error) { return k, nil }

func addrKey(k string) (addr.IP, error) {
	v, err := strconv.ParseUint(k, 10, 32)
	return addr.IP(v), err
}

// decodeSection decodes one section object into m entry by entry, so the
// decoder's buffer never holds more than one entry.
func decodeSection[K comparable, V any](dec *json.Decoder, m map[K]V, parseKey func(string) (K, error)) error {
	tok, err := dec.Token()
	if err != nil || tok == nil {
		return err
	}
	if tok != json.Delim('{') {
		return fmt.Errorf("section is %v, want an object", tok)
	}
	var v V // one heap cell for the section, not one per entry
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		name, _ := tok.(string)
		key, err := parseKey(name)
		if err != nil {
			return err
		}
		v = *new(V) // or Decode would fill the previous entry's pointer or slice again
		if err := dec.Decode(&v); err != nil {
			return err
		}
		m[key] = v
	}
	_, err = dec.Token()
	return err
}
