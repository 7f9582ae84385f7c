package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the journal's view of an open writable file: sequential writes
// plus an explicit Sync barrier for the WAL's durability points.
type File interface {
	io.WriteCloser
	// Sync flushes buffered writes to stable storage. The journal calls
	// it after every event append (before acknowledging the event) and
	// before renaming a checkpoint into place.
	Sync() error
}

// FS abstracts the directory the journal lives in, so tests can run the
// full crash/recover cycle against an in-memory tree. All paths are
// names relative to the journal directory — no separators.
type FS interface {
	// Create truncates-or-creates a file for writing.
	Create(name string) (File, error)
	// Open opens a file and returns its full contents.
	ReadFile(name string) ([]byte, error)
	// List returns the names of all files in the directory, sorted.
	List() ([]string, error)
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// SyncDir flushes the directory itself to stable storage, making
	// preceding Create/Rename/Remove entry changes durable. The journal
	// calls it after creating a segment (before any append is acked) and
	// after installing a checkpoint (before compaction deletes the WAL
	// it covers).
	SyncDir() error
}

// DirFS is the production FS: a real directory on disk. Renames are
// atomic within the directory (same filesystem), and Sync maps to
// (*os.File).Sync.
type DirFS struct {
	// Dir is the journal directory; it must exist.
	Dir string
}

// NewDirFS creates dir (and parents) if needed and returns a DirFS
// rooted there.
func NewDirFS(dir string) (DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return DirFS{}, fmt.Errorf("journal: creating dir: %w", err)
	}
	return DirFS{Dir: dir}, nil
}

// Create implements FS.
func (d DirFS) Create(name string) (File, error) {
	return os.Create(filepath.Join(d.Dir, name))
}

// ReadFile implements FS.
func (d DirFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.Dir, name))
}

// List implements FS.
func (d DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(d.Dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS.
func (d DirFS) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(d.Dir, oldname), filepath.Join(d.Dir, newname))
}

// Remove implements FS.
func (d DirFS) Remove(name string) error {
	return os.Remove(filepath.Join(d.Dir, name))
}

// SyncDir implements FS by fsyncing the directory file descriptor.
func (d DirFS) SyncDir() error {
	f, err := os.Open(d.Dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// MemFS is an in-memory FS for tests. It distinguishes written bytes
// from synced bytes: a "crash" (CrashCopy) keeps only what was synced,
// which is exactly the durability contract the journal relies on.
type MemFS struct {
	mu     sync.Mutex
	files  map[string][]byte // synced content
	dirty  map[string][]byte // written-but-unsynced tail, per open file
	failAt int               // countdown to injected write failure; 0 = off
	ops    []string          // directory-op trace for fsync-discipline tests

	syncs      int // file fsyncs attempted
	failSyncAt int // countdown to injected fsync failure; 0 = off
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string][]byte{}, dirty: map[string][]byte{}}
}

// FailAfterWrites arms a fault: the n+1'th subsequent Write call returns
// an error. Used to check the journal surfaces write errors.
func (m *MemFS) FailAfterWrites(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failAt = n + 1
}

// FailAfterSyncs arms a fault: the n+1'th subsequent file Sync returns
// an error and makes nothing durable. Used to check that a failed commit
// fails every acknowledgment waiting on it.
func (m *MemFS) FailAfterSyncs(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failSyncAt = n + 1
}

// Syncs returns how many file fsyncs the journal has issued here — the
// count the one-commit-per-request tests pin. Directory barriers are in
// Ops, not here.
func (m *MemFS) Syncs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = nil
	m.dirty[name] = nil
	m.ops = append(m.ops, "create "+name)
	return &memFile{fs: m, name: name}, nil
}

// ReadFile implements FS. It reads synced content plus any unsynced
// tail, like a live OS page cache would serve.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	synced, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: %w", name, os.ErrNotExist)
	}
	return append(append([]byte(nil), synced...), m.dirty[name]...), nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	content, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("memfs: %s: %w", oldname, os.ErrNotExist)
	}
	m.files[newname] = append(content, m.dirty[oldname]...)
	delete(m.files, oldname)
	delete(m.dirty, oldname)
	m.ops = append(m.ops, "rename "+oldname+" "+newname)
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: %s: %w", name, os.ErrNotExist)
	}
	delete(m.files, name)
	delete(m.dirty, name)
	m.ops = append(m.ops, "remove "+name)
	return nil
}

// SyncDir implements FS. The in-memory tree has no page cache for
// directory entries, so this only records the barrier for Ops().
func (m *MemFS) SyncDir() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops = append(m.ops, "syncdir")
	return nil
}

// Ops returns the trace of directory operations (create/rename/remove/
// syncdir) in execution order. Tests use it to assert the journal's
// fsync discipline — e.g. that a checkpoint rename is followed by a
// syncdir before any covered segment is removed.
func (m *MemFS) Ops() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.ops...)
}

// Bytes returns the synced content of a file (what would survive a
// crash), or nil if absent.
func (m *MemFS) Bytes(name string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.files[name]...)
}

// Put installs a file with the given synced content, overwriting any
// existing one. Tests use it to build crash images byte by byte.
func (m *MemFS) Put(name string, content []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), content...)
	delete(m.dirty, name)
}

// CrashCopy returns a new MemFS holding only synced content — the disk
// state after a power loss. Unsynced tails vanish.
func (m *MemFS) CrashCopy() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMemFS()
	for n, b := range m.files {
		c.files[n] = append([]byte(nil), b...)
	}
	return c
}

type memFile struct {
	fs     *MemFS
	name   string
	closed bool
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("memfs: write to closed file %s", f.name)
	}
	if f.fs.failAt > 0 {
		f.fs.failAt--
		if f.fs.failAt == 0 {
			return 0, fmt.Errorf("memfs: injected write failure on %s", f.name)
		}
	}
	f.fs.dirty[f.name] = append(f.fs.dirty[f.name], p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.syncs++
	if f.fs.failSyncAt > 0 {
		f.fs.failSyncAt--
		if f.fs.failSyncAt == 0 {
			return fmt.Errorf("memfs: injected sync failure on %s", f.name)
		}
	}
	f.fs.files[f.name] = append(f.fs.files[f.name], f.fs.dirty[f.name]...)
	f.fs.dirty[f.name] = nil
	return nil
}

func (f *memFile) Close() error {
	// os.File.Close is NOT a durability barrier: written-but-unsynced
	// bytes sit in the page cache and die with a power loss regardless
	// of the close. Mirror that — the dirty tail stays unsynced (still
	// visible to ReadFile, like the page cache) so CrashCopy drops it.
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}
