//go:build !(linux || darwin)

package runfile

import "os"

const hasMmap = false

func sysMmap(*os.File, int64, int64) ([]byte, error) { return nil, ErrNoMmap }

func sysMadvise([]byte) error { return ErrNoMmap }

func sysMunmap([]byte) error { return ErrNoMmap }
