//! The emulated Linux-like kernel: system call numbers, the file
//! descriptor table, heap (`brk`) and `mmap` management, `clone`, time,
//! futexes and the performance-counter interface used by the graceful-exit
//! mechanism.
//!
//! System call numbers and the register convention (`RAX` = number,
//! `RDI,RSI,RDX,R10,R8,R9` = arguments, `RAX` = result, negative errno on
//! failure) follow Linux x86-64, so guest assembly reads like real
//! syscall-level code.

use crate::fs::{resolve_path, InMemoryFs};
use crate::mem::{Memory, Perm};
use crate::thread::Thread;
use elfie_isa::{page_align_up, Reg, RegFile};

/// System call numbers (Linux x86-64 where applicable).
pub mod nr {
    pub const READ: u64 = 0;
    pub const WRITE: u64 = 1;
    pub const OPEN: u64 = 2;
    pub const CLOSE: u64 = 3;
    pub const LSEEK: u64 = 8;
    pub const MMAP: u64 = 9;
    pub const MPROTECT: u64 = 10;
    pub const MUNMAP: u64 = 11;
    pub const BRK: u64 = 12;
    pub const SCHED_YIELD: u64 = 24;
    pub const DUP: u64 = 32;
    pub const DUP2: u64 = 33;
    pub const GETPID: u64 = 39;
    pub const CLONE: u64 = 56;
    pub const EXIT: u64 = 60;
    pub const CHDIR: u64 = 80;
    pub const GETTIMEOFDAY: u64 = 96;
    pub const PRCTL: u64 = 157;
    pub const FUTEX: u64 = 202;
    pub const EXIT_GROUP: u64 = 231;
    /// Arm the calling thread's retired-instruction counter to exit the
    /// thread after `arg0` further instructions. Models the
    /// `perf_event_open`-based graceful-exit support in `libperfle`.
    pub const PERF_ARM_EXIT: u64 = 10_000;
    /// Read the calling thread's retired-instruction counter.
    pub const PERF_READ_ICOUNT: u64 = 10_001;
    /// Read the calling thread's cycle counter.
    pub const PERF_READ_CYCLES: u64 = 10_002;
    /// Number of live (non-exited) threads in the process. Serviced by the
    /// machine, not the kernel; used by the ELFie monitor thread
    /// (`elfie_on_exit`) to wait for application exit.
    pub const LIVE_THREADS: u64 = 10_003;
}

/// Errno values (as positive constants; returns encode `-errno`).
pub mod errno {
    pub const ENOENT: u64 = 2;
    pub const EAGAIN: u64 = 11;
    pub const ENOMEM: u64 = 12;
    pub const EFAULT: u64 = 14;
    pub const EINVAL: u64 = 22;
    pub const EBADF: u64 = 9;
    pub const ENOSYS: u64 = 38;
}

/// Encodes `-errno` in the Linux return convention.
pub const fn neg_errno(e: u64) -> u64 {
    (-(e as i64)) as u64
}

/// True if a syscall return value encodes an error.
pub const fn is_error(ret: u64) -> bool {
    ret > (-4096i64) as u64
}

const O_ACCMODE: u64 = 3;
const O_WRONLY: u64 = 1;
const O_CREAT: u64 = 0x40;
const O_TRUNC: u64 = 0x200;
const O_APPEND: u64 = 0x400;

/// `prctl` option for modifying process memory map fields.
pub const PR_SET_MM: u64 = 35;
/// `prctl(PR_SET_MM, ...)` sub-option: set the heap start.
pub const PR_SET_MM_START_BRK: u64 = 6;
/// `prctl(PR_SET_MM, ...)` sub-option: set the current break.
pub const PR_SET_MM_BRK: u64 = 7;

const FUTEX_WAIT: u64 = 0;
const FUTEX_WAKE: u64 = 1;

/// An open file description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileDesc {
    /// Backing object.
    pub kind: FdKind,
    /// Current offset (files only).
    pub offset: u64,
    /// Open flags as passed to `open`.
    pub flags: u64,
}

/// What a file descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdKind {
    /// Standard input (reads return EOF).
    Stdin,
    /// Standard output (captured into [`Kernel::stdout`]).
    Stdout,
    /// Standard error (captured into [`Kernel::stderr`]).
    Stderr,
    /// A regular file in the in-memory filesystem (absolute path).
    File(String),
}

/// Scheduling/side-band action requested by a syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control {
    /// Continue normally.
    Normal,
    /// The calling thread exits with the given code.
    ThreadExit(i32),
    /// Every thread exits (exit_group).
    ProcessExit(i32),
    /// Spawn a new thread with the given initial registers (`clone`); the
    /// machine assigns the tid and patches the parent's return value.
    Spawn(Box<RegFile>),
    /// Reschedule (sched_yield).
    Yield,
    /// Block the calling thread on the futex word at the address.
    FutexWait(u64),
    /// Wake up to `count` waiters on the futex word.
    FutexWake { addr: u64, count: u64 },
    /// Arm the calling thread's graceful-exit counter for `target`
    /// retirements.
    ArmExitCounter(u64),
}

/// The full result of servicing one syscall.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallOutcome {
    /// Return value for `RAX` (negative errno on failure).
    pub ret: u64,
    /// Guest-memory regions written while servicing the call. Recorded by
    /// the PinPlay logger so replay can inject them.
    pub writes: Vec<(u64, Vec<u8>)>,
    /// Scheduling action.
    pub control: Control,
}

impl SyscallOutcome {
    fn ok(ret: u64) -> SyscallOutcome {
        SyscallOutcome {
            ret,
            writes: Vec::new(),
            control: Control::Normal,
        }
    }

    fn err(e: u64) -> SyscallOutcome {
        SyscallOutcome::ok(neg_errno(e))
    }
}

/// Kernel configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Initial heap start (and break).
    pub brk_base: u64,
    /// Search base for anonymous `mmap`.
    pub mmap_base: u64,
    /// Wall-clock epoch in nanoseconds added to the cycle-derived clock;
    /// varies run to run so `gettimeofday` is non-repeatable, like the
    /// paper's canonical non-deterministic syscall.
    pub epoch_ns: u64,
    /// Process id reported by `getpid`.
    pub pid: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            brk_base: 0x0800_0000,
            mmap_base: 0x2000_0000,
            epoch_ns: 1_600_000_000_000_000_000,
            pid: 4242,
        }
    }
}

/// The emulated kernel state for one guest process.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Backing filesystem.
    pub fs: InMemoryFs,
    /// Current working directory (absolute).
    pub cwd: String,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
    fds: Vec<Option<FileDesc>>,
    brk_start: u64,
    brk: u64,
    mmap_hint: u64,
    cfg: KernelConfig,
    /// History of `brk` results, in order — the data `pinball_sysstate`
    /// extracts into `BRK.log` (first and last values).
    pub brk_history: Vec<u64>,
}

impl Kernel {
    /// Creates a kernel with the given configuration.
    pub fn new(cfg: KernelConfig) -> Kernel {
        let fds = vec![
            Some(FileDesc {
                kind: FdKind::Stdin,
                offset: 0,
                flags: 0,
            }),
            Some(FileDesc {
                kind: FdKind::Stdout,
                offset: 0,
                flags: 1,
            }),
            Some(FileDesc {
                kind: FdKind::Stderr,
                offset: 0,
                flags: 1,
            }),
        ];
        Kernel {
            fs: InMemoryFs::new(),
            cwd: "/".to_string(),
            stdout: Vec::new(),
            stderr: Vec::new(),
            fds,
            brk_start: cfg.brk_base,
            brk: cfg.brk_base,
            mmap_hint: cfg.mmap_base,
            cfg,
            brk_history: Vec::new(),
        }
    }

    /// Current program break.
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Heap start.
    pub fn brk_start(&self) -> u64 {
        self.brk_start
    }

    /// Restores the heap layout captured in a checkpoint: sets both the
    /// heap start and the current break without mapping pages (the
    /// checkpoint's memory image carries the pages themselves).
    pub fn set_brk(&mut self, start: u64, current: u64) {
        self.brk_start = start;
        self.brk = current;
    }

    /// Direct access to the descriptor table (for checkpoint tooling).
    pub fn fd(&self, fd: u64) -> Option<&FileDesc> {
        self.fds.get(fd as usize).and_then(|f| f.as_ref())
    }

    /// Installs a descriptor at a specific number, as `dup2` would —
    /// used by the generic ELFie `elfie_on_start` callback to pre-open
    /// `FD_n` proxy files from a sysstate directory.
    pub fn install_fd(&mut self, fd: u64, desc: FileDesc) {
        let idx = fd as usize;
        if self.fds.len() <= idx {
            self.fds.resize(idx + 1, None);
        }
        self.fds[idx] = Some(desc);
    }

    fn alloc_fd(&mut self, desc: FileDesc) -> u64 {
        for (i, slot) in self.fds.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(desc);
                return i as u64;
            }
        }
        self.fds.push(Some(desc));
        (self.fds.len() - 1) as u64
    }

    /// Services the syscall currently pending on `t` (which must have just
    /// executed a `SYSCALL` instruction). `now_ns` is the machine's clock.
    pub fn handle(&mut self, t: &mut Thread, mem: &mut Memory, now_ns: u64) -> SyscallOutcome {
        let nr = t.regs.read(Reg::Rax);
        let args = [
            t.regs.read(Reg::Rdi),
            t.regs.read(Reg::Rsi),
            t.regs.read(Reg::Rdx),
            t.regs.read(Reg::R10),
            t.regs.read(Reg::R8),
            t.regs.read(Reg::R9),
        ];
        match nr {
            nr::READ => self.sys_read(mem, args),
            nr::WRITE => self.sys_write(mem, args),
            nr::OPEN => self.sys_open(mem, args),
            nr::CLOSE => self.sys_close(args),
            nr::LSEEK => self.sys_lseek(args),
            nr::MMAP => self.sys_mmap(mem, args),
            nr::MPROTECT => self.sys_mprotect(mem, args),
            nr::MUNMAP => self.sys_munmap(mem, args),
            nr::BRK => self.sys_brk(mem, args),
            nr::SCHED_YIELD => SyscallOutcome {
                ret: 0,
                writes: Vec::new(),
                control: Control::Yield,
            },
            nr::DUP => self.sys_dup(args),
            nr::DUP2 => self.sys_dup2(args),
            nr::GETPID => SyscallOutcome::ok(self.cfg.pid),
            nr::CLONE => self.sys_clone(t, args),
            nr::EXIT => SyscallOutcome {
                ret: 0,
                writes: Vec::new(),
                control: Control::ThreadExit(args[0] as i32),
            },
            nr::EXIT_GROUP => SyscallOutcome {
                ret: 0,
                writes: Vec::new(),
                control: Control::ProcessExit(args[0] as i32),
            },
            nr::CHDIR => self.sys_chdir(mem, args),
            nr::GETTIMEOFDAY => self.sys_gettimeofday(mem, args, now_ns),
            nr::PRCTL => self.sys_prctl(mem, args),
            nr::FUTEX => self.sys_futex(mem, args),
            nr::PERF_ARM_EXIT => SyscallOutcome {
                ret: 0,
                writes: Vec::new(),
                control: Control::ArmExitCounter(args[0]),
            },
            nr::PERF_READ_ICOUNT => SyscallOutcome::ok(t.icount),
            nr::PERF_READ_CYCLES => SyscallOutcome::ok(t.cycles),
            _ => SyscallOutcome::err(errno::ENOSYS),
        }
    }

    fn sys_read(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let [fd, buf, count, ..] = args;
        let desc = match self.fds.get_mut(fd as usize).and_then(|f| f.as_mut()) {
            Some(d) => d,
            None => return SyscallOutcome::err(errno::EBADF),
        };
        match desc.kind.clone() {
            FdKind::Stdin => SyscallOutcome::ok(0), // EOF
            FdKind::Stdout | FdKind::Stderr => SyscallOutcome::err(errno::EBADF),
            FdKind::File(path) => {
                let mut data = vec![0u8; count as usize];
                let n = match self.fs.read_at(&path, desc.offset, &mut data) {
                    Some(n) => n,
                    None => return SyscallOutcome::err(errno::ENOENT),
                };
                desc.offset += n as u64;
                data.truncate(n);
                if mem.write_bytes(buf, &data).is_err() {
                    return SyscallOutcome::err(errno::EFAULT);
                }
                SyscallOutcome {
                    ret: n as u64,
                    writes: vec![(buf, data)],
                    control: Control::Normal,
                }
            }
        }
    }

    fn sys_write(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let [fd, buf, count, ..] = args;
        let mut data = vec![0u8; count as usize];
        if mem.read_bytes(buf, &mut data).is_err() {
            return SyscallOutcome::err(errno::EFAULT);
        }
        let desc = match self.fds.get_mut(fd as usize).and_then(|f| f.as_mut()) {
            Some(d) => d,
            None => return SyscallOutcome::err(errno::EBADF),
        };
        match desc.kind.clone() {
            FdKind::Stdout => {
                self.stdout.extend_from_slice(&data);
                SyscallOutcome::ok(count)
            }
            FdKind::Stderr => {
                self.stderr.extend_from_slice(&data);
                SyscallOutcome::ok(count)
            }
            FdKind::Stdin => SyscallOutcome::err(errno::EBADF),
            FdKind::File(path) => {
                let off = if desc.flags & O_APPEND != 0 {
                    self.fs.size(&path).unwrap_or(0)
                } else {
                    desc.offset
                };
                match self.fs.write_at(&path, off, &data) {
                    Some(n) => {
                        desc.offset = off + n as u64;
                        SyscallOutcome::ok(n as u64)
                    }
                    None => SyscallOutcome::err(errno::ENOENT),
                }
            }
        }
    }

    fn sys_open(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let [path_ptr, flags, _mode, ..] = args;
        let raw = match mem.read_cstr(path_ptr, 4096) {
            Ok(s) => s,
            Err(_) => return SyscallOutcome::err(errno::EFAULT),
        };
        let path = resolve_path(&self.cwd, &raw);
        if !self.fs.exists(&path) {
            if flags & O_CREAT != 0 {
                self.fs.put(&path, Vec::new());
            } else {
                return SyscallOutcome::err(errno::ENOENT);
            }
        } else if flags & O_TRUNC != 0 && flags & O_ACCMODE != 0 {
            self.fs.truncate(&path);
        }
        let _ = flags & O_WRONLY;
        let fd = self.alloc_fd(FileDesc {
            kind: FdKind::File(path),
            offset: 0,
            flags,
        });
        SyscallOutcome::ok(fd)
    }

    fn sys_close(&mut self, args: [u64; 6]) -> SyscallOutcome {
        let fd = args[0] as usize;
        match self.fds.get_mut(fd) {
            Some(slot @ Some(_)) => {
                *slot = None;
                SyscallOutcome::ok(0)
            }
            _ => SyscallOutcome::err(errno::EBADF),
        }
    }

    fn sys_lseek(&mut self, args: [u64; 6]) -> SyscallOutcome {
        let [fd, off, whence, ..] = args;
        let size = match self.fds.get(fd as usize).and_then(|f| f.as_ref()) {
            Some(FileDesc {
                kind: FdKind::File(p),
                ..
            }) => self.fs.size(p).unwrap_or(0),
            Some(_) => return SyscallOutcome::err(errno::EINVAL),
            None => return SyscallOutcome::err(errno::EBADF),
        };
        let desc = self.fds[fd as usize].as_mut().expect("checked above");
        let new = match whence {
            0 => off as i64,                      // SEEK_SET
            1 => desc.offset as i64 + off as i64, // SEEK_CUR
            2 => size as i64 + off as i64,        // SEEK_END
            _ => return SyscallOutcome::err(errno::EINVAL),
        };
        if new < 0 {
            return SyscallOutcome::err(errno::EINVAL);
        }
        desc.offset = new as u64;
        SyscallOutcome::ok(new as u64)
    }

    fn sys_mmap(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let [addr, len, _prot, _flags, fd, _off] = args;
        if len == 0 {
            return SyscallOutcome::err(errno::EINVAL);
        }
        if (fd as i64) >= 0 && fd != u64::MAX {
            // File-backed mappings are not supported by the emulated
            // kernel; statically linked ELFies never need them.
            return SyscallOutcome::err(errno::ENOSYS);
        }
        let len = page_align_up(len);
        let base = if addr != 0 { addr } else { self.mmap_hint };
        let got = mem.find_gap(base, len);
        if mem.map_range(got, got + len, Perm::RW).is_err() {
            return SyscallOutcome::err(errno::ENOMEM);
        }
        if addr == 0 {
            self.mmap_hint = got + len;
        }
        SyscallOutcome::ok(got)
    }

    fn sys_mprotect(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let [addr, len, prot, ..] = args;
        if len == 0 {
            return SyscallOutcome::err(errno::EINVAL);
        }
        mem.protect_range(addr, addr + page_align_up(len), Perm::from_bits(prot as u8));
        SyscallOutcome::ok(0)
    }

    fn sys_munmap(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let [addr, len, ..] = args;
        if len == 0 {
            return SyscallOutcome::err(errno::EINVAL);
        }
        mem.unmap_range(addr, addr + page_align_up(len));
        SyscallOutcome::ok(0)
    }

    fn sys_brk(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let want = args[0];
        if want != 0 {
            let cur = page_align_up(self.brk);
            let new = page_align_up(want);
            if want >= self.brk_start {
                if new > cur {
                    if mem
                        .map_range(cur.max(self.brk_start), new, Perm::RW)
                        .is_err()
                    {
                        return SyscallOutcome::err(errno::ENOMEM);
                    }
                } else if new < cur {
                    mem.unmap_range(new, cur);
                }
                self.brk = want;
            }
        }
        self.brk_history.push(self.brk);
        SyscallOutcome::ok(self.brk)
    }

    fn sys_dup(&mut self, args: [u64; 6]) -> SyscallOutcome {
        let fd = args[0] as usize;
        match self.fds.get(fd).and_then(|f| f.clone()) {
            Some(desc) => SyscallOutcome::ok(self.alloc_fd(desc)),
            None => SyscallOutcome::err(errno::EBADF),
        }
    }

    fn sys_dup2(&mut self, args: [u64; 6]) -> SyscallOutcome {
        let [old, new, ..] = args;
        match self.fds.get(old as usize).and_then(|f| f.clone()) {
            Some(desc) => {
                self.install_fd(new, desc);
                SyscallOutcome::ok(new)
            }
            None => SyscallOutcome::err(errno::EBADF),
        }
    }

    fn sys_clone(&mut self, t: &Thread, args: [u64; 6]) -> SyscallOutcome {
        let [_flags, child_stack, ..] = args;
        if child_stack == 0 {
            return SyscallOutcome::err(errno::EINVAL);
        }
        let mut regs = t.regs.clone();
        regs.write(Reg::Rax, 0);
        regs.set_rsp(child_stack);
        SyscallOutcome {
            // Parent return value patched by the machine with the new tid.
            ret: 0,
            writes: Vec::new(),
            control: Control::Spawn(Box::new(regs)),
        }
    }

    fn sys_chdir(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let raw = match mem.read_cstr(args[0], 4096) {
            Ok(s) => s,
            Err(_) => return SyscallOutcome::err(errno::EFAULT),
        };
        self.cwd = resolve_path(&self.cwd, &raw);
        SyscallOutcome::ok(0)
    }

    fn sys_gettimeofday(
        &mut self,
        mem: &mut Memory,
        args: [u64; 6],
        now_ns: u64,
    ) -> SyscallOutcome {
        let tv = args[0];
        if tv == 0 {
            return SyscallOutcome::err(errno::EFAULT);
        }
        let total_ns = self.cfg.epoch_ns + now_ns;
        let sec = total_ns / 1_000_000_000;
        let usec = (total_ns % 1_000_000_000) / 1_000;
        let mut bytes = Vec::with_capacity(16);
        bytes.extend_from_slice(&sec.to_le_bytes());
        bytes.extend_from_slice(&usec.to_le_bytes());
        if mem.write_bytes(tv, &bytes).is_err() {
            return SyscallOutcome::err(errno::EFAULT);
        }
        SyscallOutcome {
            ret: 0,
            writes: vec![(tv, bytes)],
            control: Control::Normal,
        }
    }

    fn sys_prctl(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let [option, sub, value, ..] = args;
        if option != PR_SET_MM {
            return SyscallOutcome::err(errno::EINVAL);
        }
        match sub {
            PR_SET_MM_START_BRK => {
                self.brk_start = value;
                SyscallOutcome::ok(0)
            }
            PR_SET_MM_BRK => {
                // Used by the ELFie startup callback to recreate the heap
                // layout recorded in BRK.log.
                let start = page_align_up(self.brk_start);
                let end = page_align_up(value);
                if end > start && mem.map_range(start, end, Perm::RW).is_err() {
                    return SyscallOutcome::err(errno::ENOMEM);
                }
                self.brk = value;
                SyscallOutcome::ok(0)
            }
            _ => SyscallOutcome::err(errno::EINVAL),
        }
    }

    fn sys_futex(&mut self, mem: &mut Memory, args: [u64; 6]) -> SyscallOutcome {
        let [addr, op, val, ..] = args;
        match op & 0x7f {
            FUTEX_WAIT => {
                let cur = match mem.read_u32(addr) {
                    Ok(v) => v,
                    Err(_) => return SyscallOutcome::err(errno::EFAULT),
                };
                if cur as u64 != val {
                    SyscallOutcome::err(errno::EAGAIN)
                } else {
                    SyscallOutcome {
                        ret: 0,
                        writes: Vec::new(),
                        control: Control::FutexWait(addr),
                    }
                }
            }
            FUTEX_WAKE => SyscallOutcome {
                ret: 0, // patched by the machine with the woken count
                writes: Vec::new(),
                control: Control::FutexWake { addr, count: val },
            },
            _ => SyscallOutcome::err(errno::ENOSYS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Perm;

    fn setup() -> (Kernel, Thread, Memory) {
        let k = Kernel::new(KernelConfig::default());
        let t = Thread::new(0, RegFile::new());
        let mut m = Memory::new();
        m.map_range(0x1000, 0x3000, Perm::RW).unwrap();
        (k, t, m)
    }

    fn call(
        k: &mut Kernel,
        t: &mut Thread,
        m: &mut Memory,
        nr: u64,
        args: &[u64],
    ) -> SyscallOutcome {
        t.regs.write(Reg::Rax, nr);
        let regs = [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::R10, Reg::R8, Reg::R9];
        for (i, &a) in args.iter().enumerate() {
            t.regs.write(regs[i], a);
        }
        for r in regs.iter().skip(args.len()) {
            t.regs.write(*r, 0);
        }
        k.handle(t, m, 0)
    }

    #[test]
    fn open_read_close_roundtrip() {
        let (mut k, mut t, mut m) = setup();
        k.fs.put("/input.txt", b"abcdef".to_vec());
        m.write_bytes(0x1000, b"/input.txt\0").unwrap();
        let fd = call(&mut k, &mut t, &mut m, nr::OPEN, &[0x1000, 0, 0]).ret;
        assert!(!is_error(fd));
        let out = call(&mut k, &mut t, &mut m, nr::READ, &[fd, 0x2000, 4]);
        assert_eq!(out.ret, 4);
        assert_eq!(
            out.writes.len(),
            1,
            "side effect recorded for replay injection"
        );
        let mut buf = [0u8; 4];
        m.read_bytes(0x2000, &mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
        // Second read continues at the file offset.
        let out2 = call(&mut k, &mut t, &mut m, nr::READ, &[fd, 0x2000, 4]);
        assert_eq!(out2.ret, 2);
        assert_eq!(call(&mut k, &mut t, &mut m, nr::CLOSE, &[fd]).ret, 0);
        assert!(is_error(
            call(&mut k, &mut t, &mut m, nr::READ, &[fd, 0x2000, 1]).ret
        ));
    }

    #[test]
    fn open_missing_file_fails_without_creat() {
        let (mut k, mut t, mut m) = setup();
        m.write_bytes(0x1000, b"/nope\0").unwrap();
        let r = call(&mut k, &mut t, &mut m, nr::OPEN, &[0x1000, 0, 0]).ret;
        assert_eq!(r, neg_errno(errno::ENOENT));
        let r2 = call(&mut k, &mut t, &mut m, nr::OPEN, &[0x1000, O_CREAT, 0]).ret;
        assert!(!is_error(r2));
        assert!(k.fs.exists("/nope"));
    }

    #[test]
    fn write_to_stdout_is_captured() {
        let (mut k, mut t, mut m) = setup();
        m.write_bytes(0x1000, b"hello").unwrap();
        let r = call(&mut k, &mut t, &mut m, nr::WRITE, &[1, 0x1000, 5]);
        assert_eq!(r.ret, 5);
        assert_eq!(k.stdout, b"hello");
    }

    #[test]
    fn lseek_whence_forms() {
        let (mut k, mut t, mut m) = setup();
        k.fs.put("/f", b"0123456789".to_vec());
        m.write_bytes(0x1000, b"/f\0").unwrap();
        let fd = call(&mut k, &mut t, &mut m, nr::OPEN, &[0x1000, 0, 0]).ret;
        assert_eq!(call(&mut k, &mut t, &mut m, nr::LSEEK, &[fd, 4, 0]).ret, 4);
        assert_eq!(call(&mut k, &mut t, &mut m, nr::LSEEK, &[fd, 2, 1]).ret, 6);
        assert_eq!(
            call(&mut k, &mut t, &mut m, nr::LSEEK, &[fd, (-3i64) as u64, 2]).ret,
            7
        );
        assert!(is_error(
            call(&mut k, &mut t, &mut m, nr::LSEEK, &[fd, 0, 9]).ret
        ));
    }

    #[test]
    fn brk_grows_and_shrinks_heap() {
        let (mut k, mut t, mut m) = setup();
        let base = call(&mut k, &mut t, &mut m, nr::BRK, &[0]).ret;
        assert_eq!(base, KernelConfig::default().brk_base);
        let new = base + 0x2500;
        assert_eq!(call(&mut k, &mut t, &mut m, nr::BRK, &[new]).ret, new);
        assert!(m.is_mapped(base));
        assert!(m.is_mapped(new - 1));
        // Shrink back.
        assert_eq!(call(&mut k, &mut t, &mut m, nr::BRK, &[base]).ret, base);
        assert!(!m.is_mapped(base + 0x2000));
        assert_eq!(k.brk_history.len(), 3);
    }

    #[test]
    fn mmap_munmap_anonymous() {
        let (mut k, mut t, mut m) = setup();
        let a = call(
            &mut k,
            &mut t,
            &mut m,
            nr::MMAP,
            &[0, 0x3000, 3, 0x22, u64::MAX, 0],
        )
        .ret;
        assert!(!is_error(a));
        assert!(m.is_mapped(a));
        assert!(m.is_mapped(a + 0x2fff));
        let r = call(&mut k, &mut t, &mut m, nr::MUNMAP, &[a, 0x3000]).ret;
        assert_eq!(r, 0);
        assert!(!m.is_mapped(a));
    }

    #[test]
    fn clone_spawns_thread_with_new_stack() {
        let (mut k, mut t, mut m) = setup();
        t.regs.write(Reg::Rbx, 77);
        let out = call(&mut k, &mut t, &mut m, nr::CLONE, &[0, 0x2800]);
        match out.control {
            Control::Spawn(regs) => {
                assert_eq!(regs.rsp(), 0x2800);
                assert_eq!(regs.read(Reg::Rax), 0, "child sees 0");
                assert_eq!(regs.read(Reg::Rbx), 77, "other registers inherited");
            }
            other => panic!("expected spawn, got {other:?}"),
        }
    }

    #[test]
    fn dup2_installs_descriptor() {
        let (mut k, mut t, mut m) = setup();
        k.fs.put("/f", b"x".to_vec());
        m.write_bytes(0x1000, b"/f\0").unwrap();
        let fd = call(&mut k, &mut t, &mut m, nr::OPEN, &[0x1000, 0, 0]).ret;
        let r = call(&mut k, &mut t, &mut m, nr::DUP2, &[fd, 9]).ret;
        assert_eq!(r, 9);
        assert!(matches!(k.fd(9), Some(FileDesc { kind: FdKind::File(p), .. }) if p == "/f"));
    }

    #[test]
    fn gettimeofday_writes_timeval_and_records_side_effect() {
        let (mut k, mut t, mut m) = setup();
        t.regs.write(Reg::Rax, nr::GETTIMEOFDAY);
        t.regs.write(Reg::Rdi, 0x1000);
        t.regs.write(Reg::Rsi, 0);
        let out = k.handle(&mut t, &mut m, 5_000_000_000);
        assert_eq!(out.ret, 0);
        assert_eq!(out.writes.len(), 1);
        let sec = m.read_u64(0x1000).unwrap();
        assert_eq!(
            sec,
            (KernelConfig::default().epoch_ns + 5_000_000_000) / 1_000_000_000
        );
    }

    #[test]
    fn prctl_sets_brk_layout() {
        let (mut k, mut t, mut m) = setup();
        let r = call(
            &mut k,
            &mut t,
            &mut m,
            nr::PRCTL,
            &[PR_SET_MM, PR_SET_MM_START_BRK, 0x900_0000],
        );
        assert_eq!(r.ret, 0);
        let r2 = call(
            &mut k,
            &mut t,
            &mut m,
            nr::PRCTL,
            &[PR_SET_MM, PR_SET_MM_BRK, 0x900_3000],
        );
        assert_eq!(r2.ret, 0);
        assert_eq!(k.brk(), 0x900_3000);
        assert!(m.is_mapped(0x900_1000));
    }

    #[test]
    fn futex_wait_only_when_value_matches() {
        let (mut k, mut t, mut m) = setup();
        m.write_u32(0x2000, 5).unwrap();
        let out = call(&mut k, &mut t, &mut m, nr::FUTEX, &[0x2000, FUTEX_WAIT, 5]);
        assert_eq!(out.control, Control::FutexWait(0x2000));
        let out2 = call(&mut k, &mut t, &mut m, nr::FUTEX, &[0x2000, FUTEX_WAIT, 6]);
        assert_eq!(out2.ret, neg_errno(errno::EAGAIN));
        let out3 = call(&mut k, &mut t, &mut m, nr::FUTEX, &[0x2000, FUTEX_WAKE, 2]);
        assert_eq!(
            out3.control,
            Control::FutexWake {
                addr: 0x2000,
                count: 2
            }
        );
    }

    #[test]
    fn unknown_syscall_is_enosys() {
        let (mut k, mut t, mut m) = setup();
        let r = call(&mut k, &mut t, &mut m, 9999, &[]);
        assert_eq!(r.ret, neg_errno(errno::ENOSYS));
    }

    #[test]
    fn perf_syscalls() {
        let (mut k, mut t, mut m) = setup();
        t.icount = 123;
        t.cycles = 456;
        assert_eq!(
            call(&mut k, &mut t, &mut m, nr::PERF_READ_ICOUNT, &[]).ret,
            123
        );
        assert_eq!(
            call(&mut k, &mut t, &mut m, nr::PERF_READ_CYCLES, &[]).ret,
            456
        );
        let out = call(&mut k, &mut t, &mut m, nr::PERF_ARM_EXIT, &[1000]);
        assert_eq!(out.control, Control::ArmExitCounter(1000));
    }
}
