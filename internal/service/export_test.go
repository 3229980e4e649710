package service

// SetProgramCacheEntries gives s an empty program cache of n entries, for
// tests outside the package that need evictions.
func SetProgramCacheEntries(s *Server, n int) {
	s.programs = newLRU[progKey, *programHalf](n, s.evictProgram)
}
