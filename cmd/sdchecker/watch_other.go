//go:build !linux

package main

import "errors"

// Without inotify there is no watcher: -serve and -follow find new lines
// by the full walk alone, once a second. newWatcher fails, so the
// scanner never calls the methods below.

type watcher struct{ wake chan struct{} }

func newWatcher(string) (*watcher, error) {
	return nil, errors.New("no directory watch on this platform")
}

func (*watcher) run()                                           {}
func (*watcher) take(names []string) ([]string, []string, bool) { return names, nil, false }
func (*watcher) enter(string)                                   {}
func (*watcher) addEntered() (bool, error)                      { return false, nil }
func (*watcher) watch(string) error                             { return nil }
func (*watcher) watched() int                                   { return 0 }
func (*watcher) close()                                         {}
