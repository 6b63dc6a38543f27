// Log is the durable store: an append-only journal file plus a
// periodic snapshot that lets the journal truncate. Open replays
// snapshot + journal tail into State; Record appends one frame per
// accepted mutation (batch = one frame) under a configurable fsync
// policy; Compact snapshots and truncates.
package intent

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"

	"declnet/internal/addr"
)

// SyncPolicy selects when the journal file is fsynced.
type SyncPolicy int

const (
	// SyncNone never fsyncs; the OS flushes on its own schedule. Fastest,
	// loses the tail on machine (not process) crash.
	SyncNone SyncPolicy = iota
	// SyncAlways fsyncs after every record. Slowest, loses nothing.
	SyncAlways
	// SyncInterval fsyncs every Options.SyncEvery records.
	SyncInterval
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "none"
	}
}

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	}
	return SyncNone, fmt.Errorf("intent: bad fsync policy %q (want none, always, or interval)", s)
}

// Options configures Open.
type Options struct {
	// Sync is the fsync policy; SyncEvery is the record interval for
	// SyncInterval (default 64).
	Sync      SyncPolicy
	SyncEvery int
	// CompactEvery snapshots and truncates the journal automatically
	// after this many appended records (0 = only on explicit Compact).
	CompactEvery int
	// Meta stamps world identity (seed, topology) into the first record
	// of a fresh journal; on reopen the caller compares it against
	// State.Meta and refuses to replay a foreign world's journal.
	Meta map[string]string
}

const (
	journalName = "journal.log"
	// snapshotName is the name the snapshot had when it was JSON, kept
	// because tools outside the store stat it: the file holds DNETSNP2.
	snapshotName = "snapshot.json"
	// lastUpgrade is the last commit whose Open reads a store written in
	// the formats before DNETJNL2 and DNETSNP2 — a DNETJNL1 journal of
	// JSON frames, a JSON snapshot — and upgrades it.
	lastUpgrade = "262588d"
)

// Log is the durable intent store rooted at one directory. All methods
// are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu           sync.Mutex
	f            *os.File
	buf          []byte // the frame being appended, reused
	st           *State
	sinceSync    int
	sinceCompact int
	records      uint64 // frames appended this process (not lifetime)
	compactions  uint64
	appendErrs   uint64
	lastErr      error
	replayed     int  // journal records folded at Open
	replayCut    bool // true if Open truncated a corrupt tail
}

// Stats is a point-in-time summary for /v1/snapshot and declnetctl.
type Stats struct {
	Dir             string `json:"dir"`
	Seq             uint64 `json:"seq"`
	JournalRecords  uint64 `json:"journal_records"`
	ReplayedRecords int    `json:"replayed_records"`
	Compactions     uint64 `json:"compactions"`
	AppendErrors    uint64 `json:"append_errors"`
	LastError       string `json:"last_error,omitempty"`
	TailTruncated   bool   `json:"tail_truncated,omitempty"`
}

// Open loads (or creates) the store at dir: snapshot first, then the
// journal tail, folding both into State. A corrupt journal tail is cut
// off — everything before it replays — so a crash mid-append recovers
// to the last whole frame. A corrupt snapshot is an error: it is
// written atomically (tmp + rename), so corruption there means
// something other than a crash went wrong. A store file in a format
// other than the one this build writes is refused and left as it is
// (see checkFormat): Open reads DNETSNP2 and DNETJNL2 only.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 64
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("intent: %w", err)
	}
	l := &Log{dir: dir, opts: opts, st: NewState()}
	if err := l.loadSnapshot(); err != nil {
		return nil, err
	}

	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("intent: %w", err)
	}
	l.f = f

	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("intent: %w", err)
	}
	if size == 0 {
		if err := l.writeHeaderLocked(); err != nil {
			f.Close()
			return nil, err
		}
		if len(opts.Meta) > 0 {
			// Stamp world identity as the journal's first record.
			l.mu.Lock()
			l.appendLocked("", nil, opts.Meta)
			l.mu.Unlock()
		}
		return l, nil
	}

	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("intent: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	hdr, _ := br.Peek(len(journalMagic))
	if err := l.checkFormat(journalName, hdr, journalMagic); err != nil {
		f.Close()
		return nil, err
	}
	recs, off, decErr := DecodeJournal(br)
	for i := range recs {
		if err := l.st.Apply(&recs[i]); err != nil {
			f.Close()
			return nil, err
		}
	}
	l.replayed = len(recs)
	l.replayCut = decErr != nil
	if decErr != nil {
		// Cut the corrupt tail so O_APPEND writes land right after the
		// last whole frame.
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("intent: truncating corrupt tail: %w", err)
		}
		if off < int64(len(journalMagic)) {
			// Even the header was bad; rewrite it.
			if err := l.writeHeaderLocked(); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("intent: %w", err)
	}
	return l, nil
}

// loadSnapshot removes the temporary file a crash mid-compaction left
// behind and loads the snapshot, refusing one in another format.
func (l *Log) loadSnapshot() error {
	path := filepath.Join(l.dir, snapshotName)
	_ = os.Remove(path + ".tmp") // one that stays fails the next compaction, which counts it
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err == nil {
		magic := make([]byte, len(snapshotMagic))
		n, _ := f.ReadAt(magic, 0)
		if err = l.checkFormat(snapshotName, magic[:n], snapshotMagic); err != nil {
			return err
		}
		l.st, err = decodeSnapshot(f, fi.Size())
	}
	if err != nil {
		return fmt.Errorf("intent: snapshot corrupt: %w", err)
	}
	return nil
}

// checkFormat refuses a store file whose header names a format other
// than want: another version of it (a whole header that differs from
// want only in its last byte), or, for the snapshot, JSON. Anything
// else — a header cut short by a crash while the file was created, or
// bytes that name no format — is left to the decoder.
func (l *Log) checkFormat(name string, hdr, want []byte) error {
	var format string
	switch {
	case len(hdr) == len(want) && bytes.HasPrefix(hdr, want[:len(want)-1]) && !bytes.Equal(hdr, want):
		format = fmt.Sprintf("%q", hdr)
	case bytes.Equal(want, snapshotMagic) && len(hdr) > 0 && hdr[0] == '{':
		format = "JSON"
	default:
		return nil
	}
	return fmt.Errorf("intent: %s is in format %s, and this build reads only %q (commit %s is the last to upgrade a DNETJNL1 journal or a JSON snapshot)",
		filepath.Join(l.dir, name), format, want, lastUpgrade)
}

// syncDir makes the directory entries of dir durable: a rename in it
// survives a power cut only once this returns.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	return nil
}

func (l *Log) writeHeaderLocked() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	// The file is O_APPEND, so this Write lands at the new end — offset 0.
	if _, err := l.f.Write(journalMagic); err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	return nil
}

// Record journals one accepted mutation (all its ops in one atomic
// frame) and folds it into State. Called by core's Cloud.Apply with
// the shard lock held, after the body succeeded and before the verb
// returns — so anything the tenant was told succeeded is on disk (to
// the limit of the fsync policy). Returns the assigned sequence number
// (0 when ops is empty or State refused them).
//
// Append errors are counted, not returned: the mutation has already
// been applied in memory and cannot be unwound here. Stats surfaces
// them; an operator seeing append_errors > 0 knows the journal has a
// hole from that point.
func (l *Log) Record(tenant string, ops ...Op) uint64 {
	if len(ops) == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(tenant, ops, nil)
}

func (l *Log) appendLocked(tenant string, ops []Op, meta map[string]string) uint64 {
	rec := Record{Seq: l.st.Seq + 1, Tenant: tenant, Ops: ops, Meta: meta}
	// Apply first: it validates the ops against declared state, so a
	// record that would not replay is never persisted.
	if err := l.st.Apply(&rec); err != nil {
		l.appendErrs++
		l.lastErr = err
		return 0
	}
	l.buf = appendFrame(l.buf[:0], &rec)
	var err error
	if l.f == nil {
		err = errors.New("intent: log closed")
	} else {
		_, err = l.f.Write(l.buf)
	}
	if err != nil {
		l.appendErrs++
		l.lastErr = err
		return rec.Seq
	}
	l.records++
	l.sinceSync++
	l.sinceCompact++
	switch l.opts.Sync {
	case SyncAlways:
		l.syncLocked()
	case SyncInterval:
		if l.sinceSync >= l.opts.SyncEvery {
			l.syncLocked()
		}
	}
	if l.opts.CompactEvery > 0 && l.sinceCompact >= l.opts.CompactEvery {
		// Counted from the attempt: on a failing disk the retry comes a
		// window later, not on every append after this one.
		l.sinceCompact = 0
		if err := l.compactLocked(); err != nil {
			l.appendErrs++
			l.lastErr = err
		}
	}
	return rec.Seq
}

func (l *Log) syncLocked() {
	if l.f == nil {
		return
	}
	if err := l.f.Sync(); err != nil {
		l.appendErrs++
		l.lastErr = err
		return
	}
	l.sinceSync = 0
}

// Compact snapshots State atomically (tmp + fsync + rename + directory
// fsync) and resets the journal to an empty header. A crash between
// rename and truncate is safe: replay skips journal records at or below
// the snapshot's sequence number.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compactLocked()
}

func (l *Log) compactLocked() error {
	if l.f == nil {
		return errors.New("intent: log closed")
	}
	tmp := filepath.Join(l.dir, snapshotName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	if err := l.st.encodeSnapshot(tf); err != nil {
		tf.Close()
		return fmt.Errorf("intent: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("intent: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	// The rename must be durable before the journal it replaces is cut:
	// after a power cut that kept the cut and lost the rename, every
	// record since the previous snapshot would be gone.
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if err := l.writeHeaderLocked(); err != nil {
		return err
	}
	l.sinceCompact = 0
	l.compactions++
	return nil
}

// State returns a deep copy of the declared world, made under the log's
// lock: what recovery restores from and what tests compare. Nothing the
// caller does to it reaches the log.
func (l *Log) State() *State {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.Clone()
}

// View is a read handle on the declared world, stamped with the sequence
// number it was taken at. It holds no copy of anything: what is declared
// for a target is read through Permit, Service and Quota at the moment
// the reader reaches it, and the handle answers the one question that
// takes a walk of the world — which targets fall in a phase of the
// reconciler's rotation. A reader therefore sees each entry as of some
// moment at or after Seq, not the world as of one moment; the reconciler,
// which re-validates every mismatch under the target's shard lock, needs
// no more.
type View struct {
	l   *Log
	Seq uint64
}

// View returns a handle on the declared world as of now: O(1), no copy,
// no allocation.
func (l *Log) View() View {
	l.mu.Lock()
	defer l.mu.Unlock()
	return View{l: l, Seq: l.st.Seq}
}

// PermitTargets, ServiceTargets and QuotaKeys return one phase of a
// k-phase rotation over a declared surface, sorted: the keys whose bucket
// — address mod k, or FNV-1a of the key mod k — is phase. It is
// permit.Engine.TargetsOf's question asked of declared state. Every key
// declared from Seq until the call returns is in exactly one phase's
// answer; one declared or released meanwhile may or may not be. Each call
// walks the surface; a sweep asks each question once.

// PermitTargets enumerates the targets that have a declared permit list.
func (v View) PermitTargets(phase, k int) []addr.IP {
	return gather(v.l, v.l.st.Permits, phase, k, addrBucket)
}

// ServiceTargets enumerates the declared SIPs.
func (v View) ServiceTargets(phase, k int) []addr.IP {
	return gather(v.l, v.l.st.Services, phase, k, addrBucket)
}

// QuotaKeys enumerates the QuotaKeys that have a declared quota.
func (v View) QuotaKeys(phase, k int) []string {
	return gather(v.l, v.l.st.Quotas, phase, k, stringBucket)
}

func addrBucket(t addr.IP, k int) int { return int(uint32(t) % uint32(k)) }

// stringBucket is FNV-1a mod k.
func stringBucket(s string, k int) int {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int(h % uint32(k))
}

// gatherStep bounds how many keys one hold of the log's lock enumerates,
// so a walk of the world makes a queued Record wait for a few thousand
// keys, not for all of them.
const gatherStep = 4096

// gather answers one rotation question by walking m. The walk drops the
// log's lock every gatherStep keys; a map range tolerates the inserts and
// deletes that land in between exactly as it tolerates them from its own
// loop body (a key present throughout is produced once), which is all a
// screen needs.
func gather[K cmp.Ordered, V any](l *Log, m map[K]V, phase, k int, bucket func(K, int) int) []K {
	l.mu.Lock()
	out := make([]K, 0, len(m)/k+1)
	n := 0
	for key := range m {
		if bucket(key, k) == phase {
			out = append(out, key)
		}
		if n++; n%gatherStep == 0 {
			l.mu.Unlock()
			runtime.Gosched() // or this goroutine takes the lock straight back
			l.mu.Lock()
		}
	}
	l.mu.Unlock()
	slices.Sort(out)
	return out
}

// Permit, Service and Quota read one target's declared entry as of now —
// not as of any View. Entries are immutable once stored (see State), so
// the pointer returned is the stored entry itself, shared, and stays
// valid and unchanged however the log moves on; callers must not write
// through it. They are both the reconciler's screen and what it
// re-validates a suspected divergence against: a caller holding the
// target's shard lock reads the entry exactly as the last mutation
// recorded under that lock left it, because Record runs with the shard
// lock held.

// Permit returns the declared permit list guarding target.
func (l *Log) Permit(target addr.IP) (*PermitList, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	pl, ok := l.st.Permits[target]
	return pl, ok
}

// Service returns the declared record of one SIP, bindings included.
func (l *Log) Service(sip addr.IP) (*Service, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	svc, ok := l.st.Services[sip]
	return svc, ok
}

// Quota returns the declared egress quota under a QuotaKey.
func (l *Log) Quota(key string) (float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	bps, ok := l.st.Quotas[key]
	return bps, ok
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.Seq
}

// Meta returns the world-identity stamps folded from snapshot+journal.
func (l *Log) Meta() map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[string]string, len(l.st.Meta))
	for k, v := range l.st.Meta {
		m[k] = v
	}
	return m
}

// Stats returns a point-in-time summary.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		Dir:             l.dir,
		Seq:             l.st.Seq,
		JournalRecords:  l.records,
		ReplayedRecords: l.replayed,
		Compactions:     l.compactions,
		AppendErrors:    l.appendErrs,
		TailTruncated:   l.replayCut,
	}
	if l.lastErr != nil {
		s.LastError = l.lastErr.Error()
	}
	return s
}

// Dir returns the store's root directory.
func (l *Log) Dir() string { return l.dir }

// Close syncs and closes the journal file. The store stays readable
// via State but further Records will count append errors.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
