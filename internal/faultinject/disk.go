package faultinject

// Disk fault injection: a seed-deterministic safeio.FS that makes the
// filesystem lie — ENOSPC on write, EIO on read, fsync that fails, torn
// writes that acknowledge bytes the disk never kept, and bit rot that
// flips a byte on the way back. The storage layers built on safeio (the
// cell cache, the fleet journal, the experiment checkpoint) are threaded
// through the FS seam, so the -disk-fault flag proves their durability
// claims the same way -fault proves the runner's and -net-fault proves the
// wire's.
//
// Decisions are keyed on the file's path (with safeio's random temp-file
// suffix stripped, so a fault follows the TARGET file deterministically),
// never on call order or timing: the same spec rots the same cache entries
// and rejects the same writes regardless of worker count, which is what
// lets a disk-chaos run be byte-compared against a clean golden run.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"

	"ristretto/internal/safeio"
)

// ErrInjectedENOSPC is the error injected for enospc write faults. It
// wraps syscall.ENOSPC, so errors.Is sees the real condition callers
// already handle.
var ErrInjectedENOSPC = fmt.Errorf("faultinject: injected disk full: %w", syscall.ENOSPC)

// ErrInjectedEIO is the error injected for eio read and sync-fail faults.
// It wraps syscall.EIO.
var ErrInjectedEIO = fmt.Errorf("faultinject: injected I/O error: %w", syscall.EIO)

// DiskSpec describes a deterministic disk fault schedule for NewDiskFS.
// Probabilities are per file path in [0,1]: a fault of each kind either
// always or never fires for a given path, decided by hashing (Seed, kind,
// path) — so "enospc=1" is a disk that is full for every matching path,
// and "bit-rot=0.5" rots half the matching files, the same half every run.
type DiskSpec struct {
	// Seed drives every injection decision, like Spec.Seed.
	Seed int64

	// Path, when non-empty, scopes the faults to matching files. The
	// pattern matches the whole (temp-suffix-normalized) path or any
	// component-aligned suffix of it; '*' matches any run of characters
	// including '/', '?' matches one character. "cells/*" therefore scopes
	// faults to everything under a cells/ directory. Empty matches all.
	Path string

	// ENOSPC is the probability that writes to a path fail with a wrapped
	// syscall.ENOSPC (nothing is written).
	ENOSPC float64

	// EIO is the probability that reads of a path fail with a wrapped
	// syscall.EIO.
	EIO float64

	// SyncFail is the probability that fsync of a path's handle fails with
	// a wrapped syscall.EIO after the data was written — the "lost my page
	// cache" case writers must treat as data loss.
	SyncFail float64

	// TornWrite is the probability that writes to a path are acknowledged
	// in full while only a prefix of the first write reaches the file and
	// everything after it is dropped — the lying disk a later reader must
	// catch by CRC/digest, never by trusting the writer.
	TornWrite float64

	// BitRot is the probability that one deterministic byte of a path's
	// content is flipped on every read — corruption at rest.
	BitRot float64

	// After, when positive, keeps all faults disarmed until that many
	// matching FS operations have been observed — the "disk goes bad
	// mid-run" schedule, like the panic spec's kill-after.
	After int
}

// ParseDiskSpec parses the -disk-fault flag syntax (see parseKV), e.g.
//
//	path=cells/*,seed=5,enospc=1,eio=0.2,sync-fail=0.1,torn-write=0.3,bit-rot=0.5,after=10
//
// An empty string yields a zero DiskSpec.
func ParseDiskSpec(s string) (DiskSpec, error) {
	var spec DiskSpec
	err := parseKV(s, map[string]func(string) error{
		"seed":       seedField(&spec.Seed),
		"path":       stringField(&spec.Path),
		"enospc":     probField(&spec.ENOSPC),
		"eio":        probField(&spec.EIO),
		"sync-fail":  probField(&spec.SyncFail),
		"torn-write": probField(&spec.TornWrite),
		"bit-rot":    probField(&spec.BitRot),
		"after":      countField(&spec.After),
	})
	return spec, err
}

// Zero reports whether the spec injects nothing, so callers can keep the
// passthrough FS entirely.
func (s DiskSpec) Zero() bool {
	return s.ENOSPC == 0 && s.EIO == 0 && s.SyncFail == 0 && s.TornWrite == 0 && s.BitRot == 0
}

// diskFS is the injecting FS. Write-side faults (enospc, torn-write,
// sync-fail) attach to handles opened for writing; read-side faults (eio,
// bit-rot) fire in ReadFile and on handles opened for reading. Everything
// else passes through.
type diskFS struct {
	spec DiskSpec
	base safeio.FS
	ops  atomic.Int64 // matching operations seen, for Spec.After
}

// NewDiskFS wraps base (nil = safeio.OS) with the spec's faults. A zero
// spec returns base unchanged.
func NewDiskFS(spec DiskSpec, base safeio.FS) safeio.FS {
	if base == nil {
		base = safeio.OS
	}
	if spec.Zero() {
		return base
	}
	return &diskFS{spec: spec, base: base}
}

// normalizePath makes fault decisions follow the target file: safeio's
// atomic writer stages content in ".<name>.tmp<random>" beside the target,
// and the random suffix would otherwise make every attempt draw a fresh
// fault. The temp decoration is stripped so temp file and target share one
// fate.
func normalizePath(p string) string {
	p = filepath.ToSlash(filepath.Clean(p))
	dir, base := filepath.Dir(p), filepath.Base(p)
	if strings.HasPrefix(base, ".") {
		if target, _, ok := strings.Cut(base[1:], ".tmp"); ok && target != "" {
			base = target
			if dir == "." {
				return base
			}
			return filepath.ToSlash(filepath.Join(dir, base))
		}
	}
	return p
}

// matchGlob reports whether the pattern matches s, with '*' matching any
// run of characters (including '/') and '?' matching exactly one.
func matchGlob(pattern, s string) bool {
	pi, si := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			pi, si = starP+1, starS
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// matches reports whether the (normalized) path is in the spec's scope:
// the glob matches the whole path or any component-aligned suffix.
func (d *diskFS) matches(p string) bool {
	if d.spec.Path == "" {
		return true
	}
	for {
		if matchGlob(d.spec.Path, p) {
			return true
		}
		i := strings.IndexByte(p, '/')
		if i < 0 {
			return false
		}
		p = p[i+1:]
	}
}

// armed reports whether faults may fire for path, counting the operation
// against Spec.After.
func (d *diskFS) armed(p string) bool {
	if !d.matches(p) {
		return false
	}
	n := d.ops.Add(1)
	return d.spec.After <= 0 || n > int64(d.spec.After)
}

// roll draws the deterministic decision for (kind, path).
func (d *diskFS) roll(kind, p string) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return rollAt(d.spec.Seed, kind, h)
}

// writeFaults resolves the write-side fate of a path in one draw set.
func (d *diskFS) writeFaults(p string) (enospc, torn, syncFail bool) {
	if !d.armed(p) {
		return false, false, false
	}
	enospc = d.spec.ENOSPC > 0 && d.roll("enospc", p) < d.spec.ENOSPC
	torn = d.spec.TornWrite > 0 && d.roll("torn-write", p) < d.spec.TornWrite
	syncFail = d.spec.SyncFail > 0 && d.roll("sync-fail", p) < d.spec.SyncFail
	return
}

// readFaults resolves the read-side fate of a path.
func (d *diskFS) readFaults(p string) (eio bool, rotAt int64) {
	if !d.armed(p) {
		return false, -1
	}
	rotAt = -1
	eio = d.spec.EIO > 0 && d.roll("eio", p) < d.spec.EIO
	if d.spec.BitRot > 0 && d.roll("bit-rot", p) < d.spec.BitRot {
		// The rot offset is itself deterministic per path; the reader maps
		// it into the file's length.
		rotAt = int64(d.roll("bit-rot-offset", p) * (1 << 30))
	}
	return
}

// CreateTemp implements safeio.FS; write faults key on the normalized
// target name, not the random temp name.
func (d *diskFS) CreateTemp(dir, pattern string) (safeio.File, error) {
	f, err := d.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return d.wrapWriter(f, normalizePath(f.Name())), nil
}

// OpenFile implements safeio.FS. Write-opened handles get write faults;
// read-opened handles get read faults.
func (d *diskFS) OpenFile(path string, flag int, perm os.FileMode) (safeio.File, error) {
	key := normalizePath(path)
	if flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		f, err := d.base.OpenFile(path, flag, perm)
		if err != nil {
			return nil, err
		}
		return d.wrapWriter(f, key), nil
	}
	return d.openReader(path, key)
}

// Open implements safeio.FS.
func (d *diskFS) Open(path string) (safeio.File, error) {
	return d.openReader(path, normalizePath(path))
}

func (d *diskFS) openReader(path, key string) (safeio.File, error) {
	eio, rotAt := d.readFaults(key)
	if eio {
		return nil, fmt.Errorf("faultinject: read %s: %w", path, ErrInjectedEIO)
	}
	f, err := d.base.Open(path)
	if err != nil {
		return nil, err
	}
	if rotAt < 0 {
		return f, nil
	}
	// Map the rot draw into the file's actual length so streaming reads
	// flip the same byte ReadFile would.
	info, serr := d.base.Stat(path)
	if serr != nil || info.IsDir() || info.Size() == 0 {
		return f, nil
	}
	return &rotFile{File: f, rotAt: rotAt % info.Size()}, nil
}

func (d *diskFS) wrapWriter(f safeio.File, key string) safeio.File {
	enospc, torn, syncFail := d.writeFaults(key)
	if !enospc && !torn && !syncFail {
		return f
	}
	return &faultWriteFile{File: f, key: key, enospc: enospc, torn: torn, syncFail: syncFail}
}

// ReadFile implements safeio.FS.
func (d *diskFS) ReadFile(path string) ([]byte, error) {
	key := normalizePath(path)
	eio, rotAt := d.readFaults(key)
	if eio {
		return nil, fmt.Errorf("faultinject: read %s: %w", path, ErrInjectedEIO)
	}
	data, err := d.base.ReadFile(path)
	if err != nil {
		return data, err
	}
	if rotAt >= 0 && len(data) > 0 {
		data[rotAt%int64(len(data))] ^= 0x04
	}
	return data, nil
}

// Rename implements safeio.FS.
func (d *diskFS) Rename(oldpath, newpath string) error { return d.base.Rename(oldpath, newpath) }

// Remove implements safeio.FS.
func (d *diskFS) Remove(path string) error { return d.base.Remove(path) }

// MkdirAll implements safeio.FS.
func (d *diskFS) MkdirAll(path string, perm os.FileMode) error { return d.base.MkdirAll(path, perm) }

// Stat implements safeio.FS.
func (d *diskFS) Stat(path string) (os.FileInfo, error) { return d.base.Stat(path) }

// WalkDir implements safeio.FS.
func (d *diskFS) WalkDir(root string, fn fs.WalkDirFunc) error { return d.base.WalkDir(root, fn) }

// faultWriteFile injects write-side faults on one handle.
type faultWriteFile struct {
	safeio.File
	key      string
	enospc   bool
	torn     bool
	syncFail bool
	tornDone bool
}

// Write implements io.Writer with the handle's injected fate: enospc
// rejects every write outright; torn-write persists only the first half of
// the first write, drops the rest, and lies that everything landed.
func (f *faultWriteFile) Write(p []byte) (int, error) {
	if f.enospc {
		return 0, fmt.Errorf("faultinject: write %s: %w", f.key, ErrInjectedENOSPC)
	}
	if f.torn {
		if !f.tornDone {
			f.tornDone = true
			f.File.Write(p[:len(p)/2])
		}
		return len(p), nil // acknowledged, never persisted
	}
	return f.File.Write(p)
}

// Sync implements the fsync fault: the data may have been written, but the
// handle reports it never became durable.
func (f *faultWriteFile) Sync() error {
	if f.syncFail {
		return fmt.Errorf("faultinject: fsync %s: %w", f.key, ErrInjectedEIO)
	}
	return f.File.Sync()
}

// rotFile flips one byte at a fixed offset as the content streams by.
type rotFile struct {
	safeio.File
	off   int64
	rotAt int64
}

// Read implements io.Reader with bit rot at the handle's fixed offset.
func (f *rotFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if i := f.rotAt - f.off; i >= 0 && i < int64(n) {
		p[i] ^= 0x04
	}
	f.off += int64(n)
	return n, err
}
