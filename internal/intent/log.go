// Log holds a declared world, State, and the lock its writers take, and
// is its durable tail: an append-only journal file plus a periodic
// snapshot that lets the journal truncate. Open replays snapshot +
// journal tail into State; a writer folds each op of an accepted mutation
// into State and journals them as one frame (Begin, Frame.Fold,
// Frame.Record) under a configurable fsync policy; Compact snapshots and
// truncates. NewLog is a Log with no tail: the declared world of a
// control plane that keeps no store.
package intent

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

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
	// because tools outside the store stat it: the file holds DNETSNP3.
	snapshotName = "snapshot.json"
	// lastUpgrade is the last commit whose Open reads a store written in
	// the formats before DNETJNL2 and DNETSNP2 — a DNETJNL1 journal of
	// JSON frames, a JSON snapshot — and upgrades it; lastSNP2Upgrade the
	// last that upgrades a DNETSNP2 snapshot, and lastJNL2Upgrade, the
	// commit that added DNETJNL3, the last that upgrades a DNETJNL2 journal.
	lastUpgrade     = "262588d"
	lastSNP2Upgrade = "171a73e"
	lastJNL2Upgrade = "0416de1"
)

// Log is the declared world and its durable intent store, rooted at one
// directory ("" for none). All methods are safe for concurrent use.
type Log struct {
	dir  string // "" = no durable tail (NewLog)
	opts Options

	mu           sync.Mutex
	f            *os.File
	frames       encoder // the journal file's writer: the frame being appended, reused, and the file's tables
	st           *State
	sinceSync    int
	sinceCompact int
	records      uint64 // frames appended this process (not lifetime)
	compactions  uint64
	appendErrs   uint64
	lastErr      error
	replayed     int       // journal records folded at Open
	replayCut    bool      // true if Open truncated a corrupt tail
	size         StoreSize // kept from what the log reads and writes
	// failed holds the first journal write or fsync that failed
	// (ErrFailed): the log folds and journals no frame after it, and never
	// fsyncs the journal's file again. Written under mu, read without it
	// (Failed).
	failed atomic.Pointer[error]
	// hook, set only by tests, fails the journal's write or fsync it is
	// called for ("write", "fsync") before the call reaches the file.
	hook func(op string) error
}

// ErrFailed is what every writer of a failed log is refused with, wrapped
// with the failed call and its cause: a journal write or fsync failed, so
// the frame that met it and every frame after it are not durable. The
// store takes writes again after a restart, which recovers the durable
// prefix.
var ErrFailed = errors.New("intent: the journal failed; the store takes no writes until restart")

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
// something other than a crash went wrong. A journal tail that survives
// is appended to: the writer numbers its strings and lists from what the
// surviving frames defined. A store file in a format other than the ones
// this build writes, DNETSNP3 and DNETJNL3, is refused and left as it is
// (see checkFormat).
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
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay folds the journal into State, cutting a corrupt tail, and
// resumes the journal's writer after the last whole frame. A new or empty
// journal gets its header and, when Options.Meta stamps the world's
// identity, that as its first record.
func (l *Log) replay() error {
	f, opts := l.f, l.opts
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	if size == 0 {
		if err := l.writeHeaderLocked(); err != nil {
			return err
		}
		if len(opts.Meta) > 0 {
			// Stamp world identity as the journal's first record.
			l.st.Meta = maps.Clone(opts.Meta)
			if _, err := l.appendLocked("", nil, opts.Meta); err != nil {
				return err
			}
		}
		return nil
	}

	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	hdr, _ := br.Peek(len(journalMagic))
	if err := l.checkFormat(journalName, hdr, journalMagic); err != nil {
		return err
	}
	d, recs, off, decErr := decodeJournal(br)
	for i := range recs {
		if err := l.st.Apply(&recs[i]); err != nil {
			return err
		}
	}
	l.replayed = len(recs)
	l.replayCut = decErr != nil
	if decErr != nil {
		// Cut the corrupt tail so O_APPEND writes land right after the
		// last whole frame.
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("intent: truncating corrupt tail: %w", err)
		}
		if off < int64(len(journalMagic)) {
			// Even the header was bad; rewrite it.
			return l.writeHeaderLocked()
		}
	}
	// The writer goes on from the frames that survived the cut, and from
	// nothing the cut frame defined.
	l.frames.resume(d)
	l.size.JournalBytes, l.size.JournalRecords = off, int64(len(recs))
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	return nil
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
		if err := l.checkFormat(snapshotName, magic[:n], snapshotMagic); err != nil {
			return err
		}
		l.st, err = decodeSnapshot(f, fi.Size())
		l.size.SnapshotBytes = fi.Size()
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
	return fmt.Errorf("intent: %s is in format %s, and this build reads only %q (commit %s is the last to upgrade a DNETJNL2 journal, commit %s a DNETSNP2 snapshot, commit %s a DNETJNL1 journal or a JSON snapshot)",
		filepath.Join(l.dir, name), format, want, lastJNL2Upgrade, lastSNP2Upgrade, lastUpgrade)
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

// writeHeaderLocked starts the journal afresh: an empty file, then its
// header. The file's tables start empty with it.
func (l *Log) writeHeaderLocked() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	l.frames = encoder{b: l.frames.b[:0]}
	// The file is O_APPEND, so this Write lands at the new end — offset 0.
	if _, err := l.f.Write(journalMagic); err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	l.size.JournalBytes, l.size.JournalRecords = int64(len(journalMagic)), 0
	return nil
}

// NewLog returns a Log over st (an empty State when nil) with no durable
// tail: a writer checks, folds and records its frames exactly as with a
// store, and nothing reaches a disk. Compact refuses.
func NewLog(st *State) *Log {
	if st == nil {
		st = NewState()
	}
	return &Log{st: st}
}

// Frame is a writer's hold of the log's lock for one accepted mutation,
// from Begin to Record: it checks each op against State (Check), folds
// each op it accepts (Fold), and journals them as one frame. Holding the
// lock across the frame is what keeps a compaction from snapshotting half
// of one.
type Frame struct{ l *Log }

// Begin takes the log's lock for one frame.
func (l *Log) Begin() Frame {
	l.mu.Lock()
	return Frame{l}
}

// State is the declared world the frame's writer completes its ops from.
func (f Frame) State() *State { return f.l.st }

// Check refuses, changing nothing, an op no writer may journal: the rules
// replay holds every journaled op to (State.Apply), which need no
// topology. A writer checks each op before it completes it from State.
func (f Frame) Check(tenant string, op *Op) error {
	if err := f.l.st.check(tenant, op); err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	return nil
}

// Fold applies one op Check accepted to State. It refuses, changing
// nothing, only what the op's completion decides (a grant's address, a
// set_permit that names groups) and every op once the log has failed
// (Failed).
func (f Frame) Fold(tenant string, op *Op) error {
	if err := f.l.Failed(); err != nil {
		return err
	}
	return f.l.st.applyOp(tenant, op)
}

// Record journals the folded ops as one frame, under the next sequence
// number, and releases the lock. It returns that number (0 when ops is
// empty: nothing is journaled). Record keeps nothing of ops once it
// returns — State holds what the ops point at (entry sets), never the ops
// themselves — so a caller may reuse the slice for its next frame.
//
// A frame whose journal write or fsync (under the sync policy's schedule)
// fails returns ErrFailed, and the log takes no frame after it. Its ops
// are folded already and cannot be unwound here, so a reader may see
// them until a restart recovers the durable prefix; its writer must not
// acknowledge them. A failed inline compaction is only counted (Stats):
// the journal still holds every frame.
func (f Frame) Record(tenant string, ops ...Op) (uint64, error) {
	defer f.l.mu.Unlock()
	if len(ops) == 0 {
		return 0, nil
	}
	return f.l.appendLocked(tenant, ops, nil)
}

// Record checks, folds and journals ops as one frame, in one hold of the
// lock: a Frame whose ops are complete as given, held to the rules replay
// holds them to. An op State refuses — one naming an address its tenant
// does not hold, say — ends the frame there, and the ops before it are
// journaled. It returns the frame's sequence number, or 0 when nothing
// was journaled: no op folded, or the journal failed (Failed says why).
func (l *Log) Record(tenant string, ops ...Op) uint64 {
	f := l.Begin()
	for i := range ops {
		if f.Check(tenant, &ops[i]) != nil || f.Fold(tenant, &ops[i]) != nil {
			ops = ops[:i]
			break
		}
	}
	seq, _ := f.Record(tenant, ops...)
	return seq
}

func (l *Log) appendLocked(tenant string, ops []Op, meta map[string]string) (uint64, error) {
	if err := l.Failed(); err != nil {
		return 0, err
	}
	rec := Record{Seq: l.st.Seq + 1, Tenant: tenant, Ops: ops, Meta: meta}
	l.st.Seq = rec.Seq
	if l.dir == "" {
		return rec.Seq, nil
	}
	l.frames.b = l.frames.b[:0]
	l.frames.frame(&rec)
	if err := l.write(l.frames.b); err != nil {
		return 0, l.fail("write", err)
	}
	l.size.JournalBytes += int64(len(l.frames.b))
	l.size.JournalRecords++
	l.records++
	l.sinceSync++
	l.sinceCompact++
	if l.opts.Sync == SyncAlways || l.opts.Sync == SyncInterval && l.sinceSync >= l.opts.SyncEvery {
		if err := l.sync(); err != nil {
			return 0, l.fail("fsync", err)
		}
		l.sinceSync = 0
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
	return rec.Seq, nil
}

// write and sync are the journal's two calls on its file.
func (l *Log) write(b []byte) error {
	if l.f == nil {
		return errors.New("intent: log closed")
	}
	if l.hook != nil {
		if err := l.hook("write"); err != nil {
			return err
		}
	}
	_, err := l.f.Write(b)
	return err
}

func (l *Log) sync() error {
	if l.hook != nil {
		if err := l.hook("fsync"); err != nil {
			return err
		}
	}
	return l.f.Sync()
}

// fail latches the log as failed at its first failed journal call and
// returns the latched error. After an fsync error the kernel may have
// dropped the dirty pages and report the next fsync of the file as a
// success, so no fsync of it is trusted again: the log calls none.
func (l *Log) fail(call string, err error) error {
	l.appendErrs++
	l.lastErr = err
	if l.Failed() == nil {
		failed := fmt.Errorf("%w (journal %s: %w)", ErrFailed, call, err)
		l.failed.Store(&failed)
	}
	return l.Failed()
}

// Failed returns the journal write or fsync that failed the log
// (ErrFailed), or nil: the cause /v1/health names. It takes no lock.
func (l *Log) Failed() error {
	if err := l.failed.Load(); err != nil {
		return *err
	}
	return nil
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
	if l.dir == "" {
		return errors.New("intent: no store to compact into")
	}
	if l.f == nil {
		return errors.New("intent: log closed")
	}
	if err := l.Failed(); err != nil {
		return err // the state holds the failed frame, which no snapshot may make durable
	}
	tmp := filepath.Join(l.dir, snapshotName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("intent: %w", err)
	}
	size, err := l.st.encodeSnapshot(tf)
	if err != nil {
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
	l.size.SnapshotBytes = size
	if err := l.writeHeaderLocked(); err != nil {
		return err
	}
	l.sinceCompact = 0
	l.compactions++
	return nil
}

// State returns a copy of the declared world, made under the log's lock:
// what recovery restores from and what tests compare. It shares only the
// immutable endpoint records and permit lists (see Clone); nothing else
// the caller does to it reaches the log.
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

// PermitTargets enumerates the targets that have a declared permit list:
// the endpoints and services whose records hold one.
func (v View) PermitTargets(phase, k int) []addr.IP {
	eps := gatherAddrs(v.l.st.Endpoints, phase, k, func(ep *Endpoint) bool { return ep.Permits != nil })
	svcs := gatherAddrs(v.l.st.Services, phase, k, func(svc *Service) bool { return svc.Permits != nil })
	return mergeAscending(eps, svcs)
}

// ServiceTargets enumerates the declared SIPs.
func (v View) ServiceTargets(phase, k int) []addr.IP {
	return gatherAddrs(v.l.st.Services, phase, k, nil)
}

// QuotaKeys enumerates the QuotaKeys that have a declared quota: a
// handful per tenant, listed under one hold of the lock and sorted.
func (v View) QuotaKeys(phase, k int) []string {
	v.l.mu.Lock()
	out := make([]string, 0, len(v.l.st.Quotas)/k+1)
	for key := range v.l.st.Quotas {
		if stringBucket(key, k) == phase {
			out = append(out, key)
		}
	}
	v.l.mu.Unlock()
	slices.Sort(out)
	return out
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

// gatherAddrs answers one rotation question by walking t in address
// order, keeping the keys whose value keep accepts (every key when keep
// is nil), so the answer comes out sorted. It takes no log lock: the
// table's stripe locks serialize the walk with its writers a block at a
// time, and a key put or deleted during the walk may or may not be
// produced, which is all a screen needs.
func gatherAddrs[V any](t *addr.Table[V], phase, k int, keep func(V) bool) []addr.IP {
	out := make([]addr.IP, 0, t.Len()/k+1)
	t.Ascend(0, func(ip addr.IP, v V) bool {
		if addrBucket(ip, k) == phase && (keep == nil || keep(v)) {
			out = append(out, ip)
		}
		return true
	})
	return out
}

// mergeAscending returns the ascending union of two ascending address
// lists: the endpoints' and the services' part of one surface.
func mergeAscending(a, b []addr.IP) []addr.IP {
	if len(a) == 0 || len(b) == 0 || a[len(a)-1] < b[0] {
		return append(a, b...)
	}
	out := make([]addr.IP, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] <= b[0] {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Endpoint, Permit, Service and Quota read one target's declared entry as
// of now — not as of any View. Entries are immutable once stored (see
// State), so the pointer returned is the stored entry itself, shared, and
// stays valid and unchanged however the log moves on; callers must not
// write through it. They are core's read plane, the reconciler's screen
// and what it re-validates a suspected divergence against: a caller
// holding the target's shard lock reads the entry exactly as the last
// mutation folded under that lock left it, because a writer folds under
// its shard locks. The address-keyed three read a table entry under its
// stripe lock alone, never the log's lock.

// Endpoints and Services are the declared address tables themselves, for
// a walk that must not hold up writers (Table.Each takes stripe locks
// only); a walk sees each entry as of some moment during it.
func (l *Log) Endpoints() *addr.Table[*Endpoint] { return l.st.Endpoints }
func (l *Log) Services() *addr.Table[*Service]   { return l.st.Services }

// Endpoint returns the declared record of one EIP.
func (l *Log) Endpoint(eip addr.IP) (*Endpoint, bool) { return l.st.Endpoints.Get(eip) }

// Permit returns the declared permit list guarding target.
func (l *Log) Permit(target addr.IP) (PermitList, bool) { return l.st.Permit(target) }

// Service returns the declared record of one SIP, bindings included.
func (l *Log) Service(sip addr.IP) (*Service, bool) { return l.st.Services.Get(sip) }

// Quota returns the declared egress quota under a QuotaKey.
func (l *Log) Quota(key string) (float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	bps, ok := l.st.Quotas[key]
	return bps, ok
}

// Read runs read over State under the log's lock: what a reader of the
// string-keyed sections (groups, names) takes. read must not keep State.
func (l *Log) Read(read func(*State)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	read(l.st)
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
	return maps.Clone(l.st.Meta)
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

// StoreSize is the store's size on disk.
type StoreSize struct {
	JournalBytes, JournalRecords, SnapshotBytes int64
}

// Size returns the store's size as of its last write: the journal file's
// bytes and frames, and the snapshot's bytes. It is kept from what the log
// reads and writes, and stats no file.
func (l *Log) Size() StoreSize {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Dir returns the store's root directory.
func (l *Log) Dir() string { return l.dir }

// Close syncs and closes the journal file — after a failed fsync it
// only closes it. The store stays readable via State but further Records
// will count append errors.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if l.Failed() == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
