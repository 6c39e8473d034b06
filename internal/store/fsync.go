package store

import (
	"fmt"
	"os"
	"path/filepath"
)

// Durable-write discipline. A rename alone does not survive power loss:
// the file's bytes may still be in the page cache, and the directory
// entry created by the rename is itself buffered metadata. Every
// publish therefore runs fsync(file) BEFORE the rename — so the name
// can never point at incomplete bytes — and fsync(parent directory)
// AFTER it, so the name itself is durable. The two hooks below let
// tests inject fsync failures without a filesystem that can fail on
// demand.

// syncFile and syncDir are indirection points for injected-failure
// tests; production always uses (*os.File).Sync.
var (
	syncFile = func(f *os.File) error { return f.Sync() }
	syncDir  = func(f *os.File) error { return f.Sync() }
)

// fsyncDir opens dir and fsyncs it, making recently created, renamed,
// or removed directory entries durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for fsync: %w", err)
	}
	err = syncDir(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}

// atomicWriteFile publishes data at path so that after a crash the path
// either does not exist or holds the complete contents: write to a temp
// file in the same directory, fsync it, rename over path, then fsync
// the parent directory. On any failure the temp file is removed and
// path is untouched.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", tmp, err)
	}
	if err := syncFile(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename %s: %w", tmp, err)
	}
	return fsyncDir(filepath.Dir(path))
}
