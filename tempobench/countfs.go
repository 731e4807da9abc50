package main

import (
	"io/fs"

	"repro/internal/engine"
	"repro/internal/store"
)

// countFS is the real filesystem with every fsync (file or directory)
// counted as "store.fsyncs" on an engine observer.
type countFS struct {
	store.DirFS
	obs engine.Observer
}

func newCountFS(obs engine.Observer) countFS { return countFS{obs: obs} }

func (c countFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	f, err := c.DirFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countFile{File: f, obs: c.obs}, nil
}

func (c countFS) SyncDir(name string) error {
	c.obs.Count("store.fsyncs", 1)
	return c.DirFS.SyncDir(name)
}

type countFile struct {
	store.File
	obs engine.Observer
}

func (f countFile) Sync() error {
	f.obs.Count("store.fsyncs", 1)
	return f.File.Sync()
}
