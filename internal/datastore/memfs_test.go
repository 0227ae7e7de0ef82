package datastore

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"campuslab/internal/faults"
)

// memFS is an in-memory faults.FS that keeps what a power cut would lose
// apart from what it would keep. A file holds its live bytes and the bytes
// of its last fsync; a directory holds its live entries and the entries of
// its last sync, so a create, rename, remove or mkdir is durable only once
// its parent directory is synced. crash freezes the file system and returns
// the image a restart would find: everything (a process kill — the page
// cache survives), only what was synced (power loss), or that plus a
// seeded prefix of every file's unsynced tail (a torn write).
//
// Every call is one file operation, the methods of an open file included,
// and operations are numbered from 1. crashAfter freezes the file system
// once a given number more have run; failOp makes one operation fail with
// an errno. All of it is deterministic for a seed.
type memFS struct {
	mu   sync.Mutex
	root *memNode
	rng  *rand.Rand

	ops    int  // operations issued so far
	stopAt int  // operations after this one fail as if the machine died (0 = none)
	frozen bool // crash was called

	fault *memFault // the armed failure (nil = none)
}

// memFault fails the n-th operation named op ("" = any operation) on a
// path under prefix, counted from when it was armed.
type memFault struct {
	op, prefix string
	n          int
	err        syscall.Errno
	seen       int
}

// memNode is a file (data, synced) or a directory (live, durable).
type memNode struct {
	dir           bool
	data, synced  []byte
	live, durable map[string]*memNode
}

func newDirNode() *memNode {
	return &memNode{dir: true, live: map[string]*memNode{}, durable: map[string]*memNode{}}
}

// errMemCrashed is what every operation returns once the machine is gone.
var errMemCrashed = errors.New("memfs: the machine crashed")

func newMemFS(seed int64) *memFS {
	return &memFS{root: newDirNode(), rng: rand.New(rand.NewSource(seed))}
}

// crashMode is what survives a crash.
type crashMode int

const (
	crashKill      crashMode = iota // every write, as the page cache holds it
	crashPowerLoss                  // synced bytes and synced entries only
	crashTorn                       // power loss plus a prefix of each unsynced tail
)

var crashModes = []crashMode{crashKill, crashPowerLoss, crashTorn}

func (m crashMode) String() string {
	return [...]string{"kill", "powerloss", "torn"}[m]
}

// crashAfter makes the file system die after n more operations: they run,
// every later one fails.
func (m *memFS) crashAfter(n int) {
	m.mu.Lock()
	m.stopAt = m.ops + n
	m.mu.Unlock()
}

// failOp arms a failure: the n-th later operation named op ("" = any) on
// a path under prefix ("" = anywhere) fails with errno and changes
// nothing. It replaces an armed failure that has not fired yet.
func (m *memFS) failOp(op, prefix string, n int, errno syscall.Errno) {
	m.mu.Lock()
	m.fault = &memFault{op: op, prefix: prefix, n: n, err: errno}
	m.mu.Unlock()
}

// heal disarms a failure that has not fired.
func (m *memFS) heal() {
	m.mu.Lock()
	m.fault = nil
	m.mu.Unlock()
}

// opCount is the number of operations issued so far.
func (m *memFS) opCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// crash freezes m — every later operation fails — and returns the image a
// restart finds under mode, as a fresh file system.
func (m *memFS) crash(mode crashMode) *memFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frozen = true
	img := &memFS{rng: rand.New(rand.NewSource(m.rng.Int63()))}
	seen := map[*memNode]*memNode{}
	var copyNode func(n *memNode) *memNode
	copyNode = func(n *memNode) *memNode {
		if c, ok := seen[n]; ok {
			return c
		}
		c := &memNode{dir: n.dir}
		seen[n] = c
		if n.dir {
			// Sorted, so a torn image draws its prefixes in a fixed order.
			c.live, c.durable = map[string]*memNode{}, map[string]*memNode{}
			if mode == crashKill {
				for _, name := range sortedNames(n.live) {
					c.live[name] = copyNode(n.live[name])
				}
				for _, name := range sortedNames(n.durable) {
					c.durable[name] = copyNode(n.durable[name])
				}
			} else {
				for _, name := range sortedNames(n.durable) {
					c.live[name] = copyNode(n.durable[name])
					c.durable[name] = c.live[name]
				}
			}
			return c
		}
		switch mode {
		case crashKill:
			c.data, c.synced = bytes.Clone(n.data), bytes.Clone(n.synced)
		case crashPowerLoss:
			c.data = bytes.Clone(n.synced)
		case crashTorn:
			c.data = bytes.Clone(n.synced)
			if tail := len(n.data) - len(n.synced); tail > 0 && bytes.HasPrefix(n.data, n.synced) {
				c.data = append(c.data, n.data[len(n.synced):len(n.synced)+img.rng.Intn(tail+1)]...)
			}
		}
		if mode != crashKill {
			c.synced = bytes.Clone(c.data)
		}
		return c
	}
	img.root = copyNode(m.root)
	return img
}

func sortedNames(entries map[string]*memNode) []string {
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// step numbers one operation and decides whether it runs. Caller holds mu.
func (m *memFS) step(op, path string) error {
	m.ops++
	if m.frozen || (m.stopAt > 0 && m.ops > m.stopAt) {
		return &fs.PathError{Op: op, Path: path, Err: errMemCrashed}
	}
	if f := m.fault; f != nil && (f.op == "" || f.op == op) && strings.HasPrefix(path, f.prefix) {
		if f.seen++; f.seen == f.n {
			m.fault = nil
			return &fs.PathError{Op: op, Path: path, Err: f.err}
		}
	}
	return nil
}

// lookup resolves path through live entries; nil when it does not exist.
func (m *memFS) lookup(path string) *memNode {
	n := m.root
	for _, part := range splitPath(path) {
		if !n.dir {
			return nil
		}
		if n = n.live[part]; n == nil {
			return nil
		}
	}
	return n
}

// parent resolves path's parent directory and returns it with the base
// name, or the errno that stops it.
func (m *memFS) parent(path string) (*memNode, string, error) {
	d := m.lookup(filepath.Dir(path))
	switch {
	case d == nil:
		return nil, "", syscall.ENOENT
	case !d.dir:
		return nil, "", syscall.ENOTDIR
	}
	return d, filepath.Base(path), nil
}

func splitPath(path string) []string {
	p := strings.Trim(filepath.Clean(path), "/")
	if p == "" || p == "." {
		return nil
	}
	return strings.Split(p, "/")
}

func (m *memFS) OpenFile(path string, flag int) (faults.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("open", path); err != nil {
		return nil, err
	}
	n := m.lookup(path)
	switch {
	case n == nil && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: path, Err: syscall.ENOENT}
	case n == nil:
		d, name, err := m.parent(path)
		if err != nil {
			return nil, &fs.PathError{Op: "open", Path: path, Err: err}
		}
		n = &memNode{}
		d.live[name] = n
	case n.dir:
		return nil, &fs.PathError{Op: "open", Path: path, Err: syscall.EISDIR}
	case flag&os.O_TRUNC != 0:
		n.data = nil
	}
	return &memFile{fs: m, name: path, node: n, write: flag&(os.O_WRONLY|os.O_RDWR) != 0}, nil
}

func (m *memFS) CreateTemp(dir, pattern string) (faults.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("create-temp", dir); err != nil {
		return nil, err
	}
	d := m.lookup(dir)
	if d == nil || !d.dir {
		return nil, &fs.PathError{Op: "createtemp", Path: dir, Err: syscall.ENOENT}
	}
	prefix, suffix := pattern, ""
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	for {
		name := prefix + strconv.FormatUint(uint64(m.rng.Uint32()), 10) + suffix
		if d.live[name] == nil {
			n := &memNode{}
			d.live[name] = n
			return &memFile{fs: m, name: filepath.Join(dir, name), node: n, write: true}, nil
		}
	}
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("rename", newpath); err != nil {
		return err
	}
	if filepath.Clean(oldpath) == filepath.Clean(newpath) {
		return nil
	}
	od, oname, err := m.parent(oldpath)
	if err == nil && od.live[oname] == nil {
		err = syscall.ENOENT
	}
	if err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	nd, nname, err := m.parent(newpath)
	if err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	nd.live[nname] = od.live[oname]
	delete(od.live, oname)
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("remove", path); err != nil {
		return err
	}
	d, name, err := m.parent(path)
	if err == nil {
		switch n := d.live[name]; {
		case n == nil:
			err = syscall.ENOENT
		case n.dir && len(n.live) > 0:
			err = syscall.ENOTEMPTY
		}
	}
	if err != nil {
		return &fs.PathError{Op: "remove", Path: path, Err: err}
	}
	delete(d.live, name)
	return nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("readdir", dir); err != nil {
		return nil, err
	}
	d := m.lookup(dir)
	if d == nil || !d.dir {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: syscall.ENOENT}
	}
	out := make([]fs.DirEntry, 0, len(d.live))
	for name, n := range d.live {
		out = append(out, memDirEntry{name: name, dir: n.dir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("readfile", path); err != nil {
		return nil, err
	}
	n := m.lookup(path)
	if n == nil || n.dir {
		return nil, &fs.PathError{Op: "read", Path: path, Err: syscall.ENOENT}
	}
	return bytes.Clone(n.data), nil
}

func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("mkdir", dir); err != nil {
		return err
	}
	n := m.root
	for _, part := range splitPath(dir) {
		ch := n.live[part]
		if ch == nil {
			ch = newDirNode()
			n.live[part] = ch
		}
		if !ch.dir {
			return &fs.PathError{Op: "mkdir", Path: dir, Err: syscall.ENOTDIR}
		}
		n = ch
	}
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("syncdir", dir); err != nil {
		return err
	}
	d := m.lookup(dir)
	if d == nil || !d.dir {
		return &fs.PathError{Op: "sync", Path: dir, Err: syscall.ENOENT}
	}
	d.durable = make(map[string]*memNode, len(d.live))
	for name, n := range d.live {
		d.durable[name] = n
	}
	return nil
}

// Map is a plain read: the fake has no page cache to map.
func (m *memFS) Map(path string) ([]byte, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step("map", path); err != nil {
		return nil, nil, err
	}
	n := m.lookup(path)
	if n == nil || n.dir {
		return nil, nil, &fs.PathError{Op: "map", Path: path, Err: syscall.ENOENT}
	}
	return bytes.Clone(n.data), func() {}, nil
}

// memFile is an open memFS file: reads from the start, writes append.
type memFile struct {
	fs     *memFS
	name   string
	node   *memNode
	off    int
	write  bool
	closed bool
}

func (f *memFile) Name() string { return f.name }

// use numbers the operation and checks the handle is usable for it.
func (f *memFile) use(op string, write bool) error {
	if err := f.fs.step(op, f.name); err != nil {
		return err
	}
	if f.closed || write && !f.write {
		return &fs.PathError{Op: op, Path: f.name, Err: syscall.EBADF}
	}
	return nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.use("read", false); err != nil {
		return 0, err
	}
	if f.off >= len(f.node.data) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.use("write", true); err != nil {
		return 0, err
	}
	f.node.data = append(f.node.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.use("sync", false); err != nil {
		return err
	}
	f.node.synced = bytes.Clone(f.node.data)
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.use("close", false); err != nil {
		return err
	}
	f.closed = true
	return nil
}

// memDirEntry is one ReadDir result.
type memDirEntry struct {
	name string
	dir  bool
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }

func (e memDirEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}

func (e memDirEntry) Info() (fs.FileInfo, error) {
	return nil, errors.New("memfs: no file info")
}

// matchDir lists the names in dir matching a filepath.Match pattern (nil
// when dir cannot be read).
func matchDir(fsys faults.FS, dir, pattern string) []string {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if ok, _ := filepath.Match(pattern, e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}
