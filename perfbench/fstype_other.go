//go:build !linux

package main

// fsType names the filesystem holding dir, for the run record.
func fsType(dir string) string { return "unknown" }
