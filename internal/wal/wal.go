// Package wal is the append-only write-ahead log under the live index:
// the durability primitive that lets bvserve acknowledge an ingest or a
// delete before the document ever reaches a sealed BVIX3 segment.
//
// On-disk format. A log is a flat sequence of records, each
//
//	[u32 payload length][u32 CRC-32C of payload][payload bytes]
//
// little-endian, CRC-32C (Castagnoli) — the same polynomial the BVIX3
// container uses. The payload is opaque to this package; the live index
// layers its add/delete encoding on top. There is no file header: an
// empty file is a valid empty log, which is what crash-during-create
// leaves behind.
//
// Durability contract. Append returns only after the fsync that covers
// the record has completed — an acked record survives SIGKILL and power
// loss. With SyncEvery == 0 every append syncs individually; with a
// positive group-commit window, concurrent appenders share one fsync
// per batch, held open for at most the window (Enqueue/Commit.Wait
// splits the two phases so a caller can serialize record order under
// its own lock without serializing the sync). A failed write or sync
// permanently brickes the log: every subsequent operation returns the
// original error, because a log whose tail state is unknown must not
// accept more records.
//
// Replay contract. Replay scans records in order and stops at the first
// frame that does not parse: short header, absurd length, length past
// EOF, or CRC mismatch. Everything before the bad frame is returned;
// everything from it on is a torn tail — the residue of a crash between
// write and sync — and Open truncates it (atomically, via rewrite +
// rename + dir fsync) so the next append cannot splice a new record
// onto garbage. Replay therefore returns a prefix of what was appended:
// at least every acked record (they were fully written and synced
// before the ack) and at most a few trailing unacked ones whose frames
// happened to land intact. No record is ever half-applied: a frame
// either round-trips its CRC or is discarded whole.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/faultio"
)

const (
	headerSize = 8
	// MaxRecord bounds a single payload; a length field above it means
	// the frame is garbage, not a record we failed to buffer.
	MaxRecord = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options tunes a Log.
type Options struct {
	// FS is the file-system seam; nil means faultio.OS.
	FS faultio.FS
	// SyncEvery is the group-commit window: appends that arrive while a
	// batch is open share one fsync, and a batch stays open at most this
	// long — less once appenders stop joining it. Zero syncs every
	// append individually; the ack-after-fsync contract is identical
	// either way.
	SyncEvery time.Duration
}

// Log is an open write-ahead log. Appends are safe for concurrent use.
type Log struct {
	path string
	fsys faultio.FS
	opts Options

	mu      sync.Mutex
	f       faultio.File
	size    int64 // durable + buffered bytes written so far
	synced  int64 // bytes covered by a completed fsync
	broken  error // first write/sync error; poisons the log
	closed  bool
	pending *Commit       // open group-commit batch, nil when none
	wake    chan struct{} // signals the flusher that a batch is open
	done    chan struct{} // closed when the flusher exits
}

// Commit is one group-commit batch handle. Wait blocks until the fsync
// covering every record enqueued into the batch has completed (or
// failed) and returns its error.
type Commit struct {
	ch  chan struct{}
	err error
}

// Wait blocks for the batch's fsync.
func (c *Commit) Wait() error {
	<-c.ch
	return c.err
}

// resolvedCommit is reused for the SyncEvery==0 path where Enqueue
// already synced.
func resolvedCommit(err error) *Commit {
	c := &Commit{ch: make(chan struct{})}
	c.err = err
	close(c.ch)
	return c
}

// Open replays the log at path, truncates any torn tail, and opens it
// for appending. The replayed payloads are returned in append order.
// A missing file is an empty log — Open creates it.
func Open(path string, opts Options) (*Log, [][]byte, error) {
	if opts.FS == nil {
		opts.FS = faultio.OS
	}
	recs, valid, total, err := scan(opts.FS, path)
	if err != nil {
		return nil, nil, err
	}
	if valid < total {
		// Torn tail: rewrite the valid prefix and atomically swap it in,
		// so the appender never splices fresh records onto garbage.
		if err := truncateTo(opts.FS, path, valid); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	f, err := opts.FS.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{
		path: path, fsys: opts.FS, opts: opts, f: f,
		size: valid, synced: valid,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	if opts.SyncEvery > 0 {
		go l.flusher()
	} else {
		close(l.done)
	}
	return l, recs, nil
}

// Replay reads the log at path without opening it for append, returning
// the payloads of every intact record in order. A missing file is an
// empty log. The torn tail, if any, is left on disk untouched.
func Replay(fsys faultio.FS, path string) ([][]byte, error) {
	if fsys == nil {
		fsys = faultio.OS
	}
	recs, _, _, err := scan(fsys, path)
	return recs, err
}

// scan reads the whole file and parses records until the first bad
// frame. It returns the intact payloads, the byte length of the valid
// prefix, and the total file length. A missing file scans as empty.
func scan(fsys faultio.FS, path string) (recs [][]byte, valid, total int64, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	total = int64(len(data))
	off := 0
	for {
		if len(data)-off < headerSize {
			break // short header: torn tail (or clean EOF at off == len)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > MaxRecord || int(n) > len(data)-off-headerSize {
			break // absurd or past-EOF length: torn tail
		}
		payload := data[off+headerSize : off+headerSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // bit rot or torn mid-payload
		}
		recs = append(recs, append([]byte(nil), payload...))
		off += headerSize + int(n)
	}
	return recs, int64(off), total, nil
}

// truncateTo rewrites the first n bytes of path and renames the copy
// over the original — the faultio.FS surface has no Truncate, and the
// rewrite keeps the swap atomic on top of the same rename discipline
// WriteFile uses.
func truncateTo(fsys faultio.FS, path string, n int64) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	if int64(len(data)) < n {
		return fmt.Errorf("file shrank under truncate: %d < %d", len(data), n)
	}
	tmp := path + ".trunc"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data[:n]); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// Append writes one record and blocks until it is durable. Equivalent
// to Enqueue(payload).Wait().
func (l *Log) Append(payload []byte) error {
	return l.Enqueue(payload).Wait()
}

// Enqueue writes one record into the current group-commit batch and
// returns the batch handle; the record is durable once Wait returns
// nil. Callers that need record order to match an externally-locked
// application order call Enqueue under their lock and Wait outside it.
func (l *Log) Enqueue(payload []byte) *Commit {
	l.mu.Lock()
	if l.broken != nil {
		l.mu.Unlock()
		return resolvedCommit(l.broken)
	}
	if l.closed {
		l.mu.Unlock()
		return resolvedCommit(ErrClosed)
	}
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[headerSize:], payload)
	if _, err := l.f.Write(frame); err != nil {
		l.broken = fmt.Errorf("wal: append %s: %w", l.path, err)
		err := l.broken
		l.mu.Unlock()
		return resolvedCommit(err)
	}
	l.size += int64(len(frame))
	if l.opts.SyncEvery <= 0 {
		err := l.syncLocked()
		l.mu.Unlock()
		return resolvedCommit(err)
	}
	if l.pending == nil {
		l.pending = &Commit{ch: make(chan struct{})}
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	c := l.pending
	l.mu.Unlock()
	return c
}

// syncLocked fsyncs the file and advances the durable watermark; the
// caller holds l.mu.
func (l *Log) syncLocked() error {
	if l.broken != nil {
		return l.broken
	}
	if l.synced == l.size {
		// Nothing unsynced — also what keeps a flusher that fires after
		// Close already synced from touching the closed file.
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: sync %s: %w", l.path, err)
		return l.broken
	}
	l.synced = l.size
	return nil
}

// flusher is the group-commit loop: each open batch is gathered (see
// gather) and then synced, releasing every waiter at once.
func (l *Log) flusher() {
	defer close(l.done)
	for range l.wake {
		l.gather()
		l.mu.Lock()
		c := l.pending
		l.pending = nil
		if c == nil {
			l.mu.Unlock()
			continue
		}
		c.err = l.syncLocked()
		l.mu.Unlock()
		close(c.ch)
	}
	// Drain: resolve any batch left behind after Close stopped the loop.
	l.mu.Lock()
	if c := l.pending; c != nil {
		l.pending = nil
		c.err = ErrClosed
		if l.broken != nil {
			c.err = l.broken
		}
		l.mu.Unlock()
		close(c.ch)
		return
	}
	l.mu.Unlock()
}

// gather holds the open batch while appenders keep joining it: it
// yields the processor and closes the batch as soon as a yield brings
// no new record, or once the window has elapsed. It yields instead of
// sleeping because runtime timers round sub-millisecond sleeps up to a
// millisecond or more (about 1.1ms on a 2-vCPU Linux host), many times
// an fsync on fast storage (~70µs on ext4 there): a sleeping flusher
// makes group commit slower than per-append fsync. Appenders that
// arrive after the batch closes ride the next one.
func (l *Log) gather() {
	deadline := time.Now().Add(l.opts.SyncEvery)
	l.mu.Lock()
	size := l.size
	l.mu.Unlock()
	for time.Now().Before(deadline) {
		runtime.Gosched()
		l.mu.Lock()
		grew := l.size != size
		size = l.size
		l.mu.Unlock()
		if !grew {
			return
		}
	}
}

// Sync forces an fsync outside any window — the seal path calls it
// before rotating logs.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Size reports the log's byte length including any not-yet-synced tail.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Pending reports bytes written but not yet covered by an fsync — the
// /stats "WAL bytes pending" gauge.
func (l *Log) Pending() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size - l.synced
}

// Path reports the log's file path.
func (l *Log) Path() string { return l.path }

// Close syncs and closes the log. Safe to call once; the log is
// unusable afterward.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	serr := error(nil)
	if l.broken == nil {
		serr = l.syncLocked()
	}
	cerr := l.f.Close()
	flusherRunning := l.opts.SyncEvery > 0
	l.mu.Unlock()
	if flusherRunning {
		close(l.wake)
		<-l.done
	}
	if serr != nil {
		return serr
	}
	return cerr
}
