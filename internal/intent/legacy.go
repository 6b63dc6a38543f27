// The readers of the formats before the binary ones: the JSON snapshot
// and the DNETJNL1 journal, whose frames are JSON records. Nothing writes
// either any more. Open reads an old store through them once — a JSON
// snapshot until the next compaction replaces it, a DNETJNL1 journal
// followed at once by a compaction — and this is the one file of the
// package that imports encoding/json.
package intent

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"declnet/internal/addr"
)

// legacyJournalMagic opens a journal of JSON frames.
var legacyJournalMagic = []byte("DNETJNL1")

// decodeLegacyJournal is DecodeJournal for a DNETJNL1 journal: the same
// frames, each payload a JSON record.
func decodeLegacyJournal(r io.Reader) ([]Record, int64, error) {
	return decodeFrames(r, legacyJournalMagic, func(payload []byte) (rec Record, err error) {
		err = json.Unmarshal(payload, &rec)
		return rec, err
	})
}

// decodeJSONSnapshot folds a JSON snapshot stream into s, one entry at a
// time. As json.Unmarshal into a State would, it skips an unknown
// top-level key and ignores whatever follows the object; a null section
// leaves the section empty.
func (s *State) decodeJSONSnapshot(r io.Reader) error {
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
