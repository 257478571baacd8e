package service

// ForgetTickTerms makes the next Tick rebuild its tick terms whatever the
// key says: the reference a service that keeps its terms is held against.
func (s *Service) ForgetTickTerms() { s.terms.built = false }

// SameBits reports whether two matrices hold bit-identical values.
var SameBits = sameBits
