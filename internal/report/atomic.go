package report

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes data to path crash-safely: the bytes land in a
// temporary file in the same directory, are fsynced, and are renamed over
// the destination in one step. A reader (or a restart after kill -9) sees
// either the previous complete file or the new complete file, never a
// partial write. Agent files, training checkpoints, audit flushes,
// registry snapshots and benchmark results all go through it.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report: create %s: %w", dir, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("report: stage %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("report: stage %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("report: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("report: close %s: %w", path, err)
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		cleanup()
		return fmt.Errorf("report: chmod %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("report: commit %s: %w", path, err)
	}
	return nil
}
