//go:build !amd64

package mat

// archKernels reports that this architecture has no assembly kernels:
// the pure-Go reference runs everywhere but amd64.
func archKernels() (kernelSet, bool) { return kernelSet{}, false }
