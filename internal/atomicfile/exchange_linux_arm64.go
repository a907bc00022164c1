package atomicfile

import "syscall"

// sysRenameat2 is renameat2's number on linux/arm64.
const sysRenameat2 = syscall.SYS_RENAMEAT2
